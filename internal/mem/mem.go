// Package mem provides the simulated physical memory layer: fixed-size
// page frames handed out by a per-machine allocator that recycles the
// frames its address spaces release. The virtual memory system
// (internal/vm) builds anons and mappings on top of these frames;
// sharing a page between two address spaces means both map the same
// *Page, exactly as UVM shares the underlying physical page.
package mem

import "fmt"

// PageSize is the simulated page size in bytes. It matches the i386
// page size used by the paper's OpenBSD 3.6 test system.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Page is one physical page frame. Frames are reference counted by the
// anon layer above, which frees a frame when its last reference goes;
// the allocator hands a freed frame out again, zeroed, to a later Alloc
// on the same Phys.
type Page struct {
	Data [PageSize]byte
	// Frame is the physical frame number, stable for the lifetime of
	// the page and kept when the frame is reused. Useful in tests to
	// assert two mappings share storage.
	Frame uint64
	free  bool // on its allocator's free list
}

// Phys is the physical memory allocator of one simulated machine. It is
// not safe for concurrent use: a machine's spaces draw from it on the
// machine's own goroutine. The zero value is unusable; create one with
// NewPhys.
type Phys struct {
	limit     uint64 // max frames; 0 = unlimited
	allocated uint64
	freed     uint64
	next      uint64
	// spare holds the freed frames, most recently freed last; it never
	// grows past the machine's peak InUse.
	spare []*Page

	// Epoch is the mapping generation of every address space drawing
	// frames from this allocator: internal/vm caches translations under
	// it and advances it whenever one of them may have gone stale. It
	// starts at 1, so an empty cache slot (epoch 0) never matches.
	Epoch uint64
	// Spares is where the virtual memory layer keeps what this
	// machine's address spaces released for reuse (internal/vm's map
	// entries, anons and amaps), beside the frames they held. mem
	// itself never reads it.
	Spares any
}

// NewPhys returns an allocator that will hand out at most limitBytes of
// physical memory (rounded down to whole frames). limitBytes of zero
// means unlimited.
func NewPhys(limitBytes uint64) *Phys {
	return &Phys{limit: limitBytes / PageSize, Epoch: 1}
}

// Alloc returns a zeroed page frame, or an error if physical memory is
// exhausted. It reuses the most recently freed frame when there is one.
func (p *Phys) Alloc() (*Page, error) {
	if p.limit != 0 && p.InUse() >= p.limit {
		return nil, fmt.Errorf("mem: out of physical memory (%d frames in use)", p.InUse())
	}
	p.allocated++
	if n := len(p.spare); n > 0 {
		pg := p.spare[n-1]
		p.spare = p.spare[:n-1]
		pg.Data = [PageSize]byte{}
		pg.free = false
		return pg, nil
	}
	p.next++
	return &Page{Frame: p.next}, nil
}

// Free returns a frame to the allocator for a later Alloc to reuse. The
// page must not be used afterwards. Freeing a frame twice panics: the
// frame would otherwise go to two owners.
func (p *Phys) Free(pg *Page) {
	if pg == nil {
		return
	}
	if pg.free {
		panic(fmt.Sprintf("mem: frame %d freed twice", pg.Frame))
	}
	pg.free = true
	p.freed++
	p.spare = append(p.spare, pg)
}

// InUse reports the number of outstanding frames.
func (p *Phys) InUse() uint64 { return p.allocated - p.freed }

// Allocated reports the total number of Alloc calls that returned a
// frame, reused or new.
func (p *Phys) Allocated() uint64 { return p.allocated }

// PageAlign rounds addr down to a page boundary.
func PageAlign(addr uint32) uint32 { return addr &^ (PageSize - 1) }

// PageRoundUp rounds addr up to a page boundary.
func PageRoundUp(addr uint32) uint32 {
	return (addr + PageSize - 1) &^ (PageSize - 1)
}
