// Package vm implements the simulated virtual memory system modelled on
// UVM (Cranor), the OpenBSD VM layer the paper modified. It provides
// per-process address spaces built from map entries over reference
// counted anonymous pages, copy-on-write fork, demand zero-fill, and —
// the paper's additions (Figure 6) — forcible sharing of an address
// range between two processes plus fault-time sharing against a partner
// space so that heap and stack growth after the SecModule handshake
// stays shared.
//
// Correspondence with the paper's Figure 6:
//
//	uvmspace_force_share  ->  ForceShareSpaces
//	uvm_force_share       ->  ForceShare
//	uvm_map_shared_internal -> MapSharedInternal
//	modified uvm_fault    ->  (*Space).Fault with partner-map lookup
//	modified sys_obreak   ->  (*Space).Obreak with shared growth
package vm

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/mem"
)

// Prot is a page-protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
	// ProtRW and ProtRWX are the common combinations.
	ProtRW  = ProtRead | ProtWrite
	ProtRX  = ProtRead | ProtExec
	ProtRWX = ProtRead | ProtWrite | ProtExec
)

func (p Prot) String() string {
	s := []byte("---")
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	if p&ProtExec != 0 {
		s[2] = 'x'
	}
	return string(s)
}

// Fault classification errors.
var (
	// ErrNoMapping is a fault on an address with no map entry (SIGSEGV).
	ErrNoMapping = errors.New("vm: no mapping")
	// ErrProtection is an access violating the entry protection.
	ErrProtection = errors.New("vm: protection violation")
	// ErrOverlap is returned by Map when the requested fixed range
	// collides with an existing entry.
	ErrOverlap = errors.New("vm: mapping overlap")
	// ErrNoMem propagates physical-memory exhaustion.
	ErrNoMem = errors.New("vm: out of memory")
)

// Access describes the kind of memory access causing a fault.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) prot() Prot {
	switch a {
	case AccessWrite:
		return ProtWrite
	case AccessExec:
		return ProtExec
	default:
		return ProtRead
	}
}

// Anon is a reference-counted anonymous page, the unit of sharing.
// Two address spaces share memory when their amaps reference the same
// *Anon. Refs counts amap references; a copy-on-write anon with Refs>1
// is copied on the first write fault.
type Anon struct {
	Page *mem.Page
	Refs int
}

// Entry is one contiguous mapping [Start,End) in an address space.
// Anonymous memory lives in Amap, keyed by page index relative to
// Start. When Shared is set the amap is aliased between spaces (writes
// are mutually visible); otherwise fork marks both sides copy-on-write.
type Entry struct {
	Start, End uint32
	Prot       Prot
	Name       string
	// Amap maps page-index-within-entry to anon. Shared entries alias
	// the same map object across spaces, so a page materialized by
	// either side is immediately visible to the other.
	Amap map[uint32]*Anon
	// Shared marks the entry as write-shared (SecModule force-share or
	// explicitly shared mappings). Non-shared entries become COW on fork.
	Shared bool
	// COW marks the entry copy-on-write: anons with Refs>1 must be
	// copied before the first write.
	COW bool
	// aliases counts the entries, across all spaces, that alias Amap;
	// nil means this entry is the amap's only one. The anons go with
	// the last alias (see release).
	aliases *int
}

func (e *Entry) contains(addr uint32) bool { return addr >= e.Start && addr < e.End }

func (e *Entry) pageIndex(addr uint32) uint32 {
	return (mem.PageAlign(addr) - e.Start) >> mem.PageShift
}

// alias returns a new entry over e's amap: both become write-shared and
// the amap counts one more alias. The caller maps the result.
func (e *Entry) alias() *Entry {
	if e.aliases == nil {
		e.aliases = new(int)
		*e.aliases = 1
	}
	*e.aliases++
	e.Shared = true
	return &Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
		Amap: e.Amap, Shared: true, aliases: e.aliases}
}

// lastAlias reports whether no other entry aliases e's amap, so the
// amap (and its anon references) goes when e does.
func (e *Entry) lastAlias() bool { return e.aliases == nil || *e.aliases <= 1 }

// Space is one process's address space.
type Space struct {
	phys *mem.Phys
	clk  *clock.Clock
	// costs is the machine's cost table for fault-service charges
	// (SetCosts); nil falls back to the baseline table, so unit tests
	// building bare spaces keep the historical charges.
	costs *clock.Costs

	entries []*Entry // sorted by Start, non-overlapping

	// Partner is the other half of a SecModule pair. When a fault finds
	// no local mapping inside [ShareStart,ShareEnd), the modified fault
	// handler consults the partner space and, if it has a valid mapping
	// there, shares it (paper section 4.1).
	Partner              *Space
	ShareStart, ShareEnd uint32

	// Heap bookkeeping for Obreak.
	HeapStart, HeapEnd uint32

	// Counters exposed for tests and benchmarks.
	Faults      uint64 // total service faults (page materialized/copied/shared)
	ZeroFills   uint64
	COWCopies   uint64
	ShareFaults uint64 // faults resolved from the partner space
}

// NewSpace returns an empty address space drawing frames from phys and
// charging fault-service costs to clk. Either may be nil in unit tests
// (nil phys panics on first allocation; nil clk skips charging).
func NewSpace(phys *mem.Phys, clk *clock.Clock) *Space {
	return &Space{phys: phys, clk: clk}
}

// baseCosts is the fallback charge table for spaces whose owner never
// called SetCosts (bare unit-test spaces).
var baseCosts = clock.Base()

// SetCosts points fault-service charges at the owning machine's cost
// table (shared by reference: the kernel scales it once per backend
// profile at construction).
func (s *Space) SetCosts(c *clock.Costs) { s.costs = c }

// Costs returns the active charge table.
func (s *Space) Costs() *clock.Costs {
	if s.costs != nil {
		return s.costs
	}
	return &baseCosts
}

func (s *Space) charge(c uint64) {
	if s.clk != nil {
		s.clk.Advance(c)
	}
}

// find returns the entry containing addr, or nil.
func (s *Space) find(addr uint32) *Entry {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].End > addr })
	if i < len(s.entries) && s.entries[i].contains(addr) {
		return s.entries[i]
	}
	return nil
}

// FindEntry returns the entry containing addr, or nil. Exported for the
// kernel and for layout inspection.
func (s *Space) FindEntry(addr uint32) *Entry { return s.find(addr) }

// Entries returns the entries in address order. The slice is shared;
// callers must not mutate it.
func (s *Space) Entries() []*Entry { return s.entries }

func (s *Space) insert(e *Entry) error {
	for _, x := range s.entries {
		if e.Start < x.End && x.Start < e.End {
			return fmt.Errorf("%w: [%#x,%#x) overlaps %s [%#x,%#x)",
				ErrOverlap, e.Start, e.End, x.Name, x.Start, x.End)
		}
	}
	s.entries = append(s.entries, e)
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Start < s.entries[j].Start })
	return nil
}

// Map establishes an anonymous mapping [start,start+size) with the given
// protection. start and size must be page aligned. This is the analogue
// of uvm_map for MAP_ANON fixed mappings.
func (s *Space) Map(start, size uint32, prot Prot, name string) (*Entry, error) {
	if start%mem.PageSize != 0 || size == 0 || size%mem.PageSize != 0 {
		return nil, fmt.Errorf("vm: Map(%#x,%#x): unaligned", start, size)
	}
	e := &Entry{Start: start, End: start + size, Prot: prot, Name: name, Amap: make(map[uint32]*Anon)}
	if err := s.insert(e); err != nil {
		return nil, err
	}
	return e, nil
}

// MapSharedInternal maps the same anonymous object at the same address
// in two spaces at once: both entries alias one amap, so every page is
// physically shared. This is the analogue of the paper's
// uvm_map_shared_internal (Figure 6).
func MapSharedInternal(s1, s2 *Space, start, size uint32, prot Prot, name string) (*Entry, *Entry, error) {
	e1, err := s1.Map(start, size, prot, name)
	if err != nil {
		return nil, nil, err
	}
	e2 := e1.alias()
	if err := s2.insert(e2); err != nil {
		s1.Unmap(start, start+size)
		return nil, nil, err
	}
	return e1, e2, nil
}

// Unmap removes all mappings overlapping [start,end), splitting entries
// at the boundaries, and drops anon references for the removed range.
// An entry whose amap other entries still alias leaves the amap to
// them: its remainders then take their own anon references.
func (s *Space) Unmap(start, end uint32) {
	var keep []*Entry
	for _, e := range s.entries {
		if e.End <= start || e.Start >= end {
			keep = append(keep, e)
			continue
		}
		// Overlap: possibly split into a left and/or right remainder.
		last := e.lastAlias()
		lo, hi := start, end
		if lo < e.Start {
			lo = e.Start
		}
		if hi > e.End {
			hi = e.End
		}
		if e.Start < lo {
			left := &Entry{Start: e.Start, End: lo, Prot: e.Prot, Name: e.Name,
				Amap: make(map[uint32]*Anon), Shared: e.Shared, COW: e.COW}
			for idx, an := range e.Amap {
				a := e.Start + idx<<mem.PageShift
				if a < lo {
					left.Amap[idx] = an
					if !last {
						an.Refs++
					}
				}
			}
			// Rebase is unnecessary: left.Start == e.Start.
			keep = append(keep, left)
		}
		if e.End > hi {
			right := &Entry{Start: hi, End: e.End, Prot: e.Prot, Name: e.Name,
				Amap: make(map[uint32]*Anon), Shared: e.Shared, COW: e.COW}
			base := (hi - e.Start) >> mem.PageShift
			for idx, an := range e.Amap {
				a := e.Start + idx<<mem.PageShift
				if a >= hi {
					right.Amap[idx-base] = an
					if !last {
						an.Refs++
					}
				}
			}
			keep = append(keep, right)
		}
		// Drop references covered by [lo,hi) with the amap's last alias;
		// otherwise the other aliases keep the amap, anons and all.
		if !last {
			*e.aliases--
		} else {
			for idx, an := range e.Amap {
				a := e.Start + idx<<mem.PageShift
				if a >= lo && a < hi {
					s.dropAnon(an)
					delete(e.Amap, idx)
				}
			}
		}
	}
	s.entries = keep
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Start < s.entries[j].Start })
}

func (s *Space) dropAnon(an *Anon) {
	if an == nil {
		return
	}
	an.Refs--
	if an.Refs <= 0 && s.phys != nil {
		s.phys.Free(an.Page)
	}
}

// UnmapAll removes every mapping (process teardown).
func (s *Space) UnmapAll() {
	for _, e := range s.entries {
		s.release(e)
	}
	s.entries = nil
}

// release drops e's hold on its amap: the last alias drops the anons,
// any other just leaves the amap to the rest.
func (s *Space) release(e *Entry) {
	if !e.lastAlias() {
		*e.aliases--
		return
	}
	for _, an := range e.Amap {
		s.dropAnon(an)
	}
}

// Fault resolves a page fault at addr for the given access kind,
// materializing, copying or sharing the page as required, and returns
// the physical page. It implements the paper's modified uvm_fault: when
// the faulting address has no local mapping but lies inside the
// SecModule share range and the partner space has a valid mapping for
// it, the partner's entry is aliased into this space so the pair keeps
// sharing memory that was mapped after the handshake.
func (s *Space) Fault(addr uint32, access Access) (*mem.Page, error) {
	e := s.find(addr)
	if e == nil {
		// Modified uvm_fault: consult the partner space inside the
		// share range (paper section 4.1).
		if s.Partner != nil && addr >= s.ShareStart && addr < s.ShareEnd {
			pe := s.Partner.find(addr)
			if pe != nil {
				// Clip the alias to the share range so a partner entry
				// straddling the boundary cannot leak outside it.
				if pe.Start < s.ShareStart || pe.End > s.ShareEnd {
					return nil, fmt.Errorf("%w: partner entry %s [%#x,%#x) exceeds share range",
						ErrNoMapping, pe.Name, pe.Start, pe.End)
				}
				alias := pe.alias()
				if err := s.insert(alias); err != nil {
					*alias.aliases--
					return nil, err
				}
				s.ShareFaults++
				s.Faults++
				s.charge(s.Costs().PageFault)
				e = alias
			}
		}
		if e == nil {
			return nil, fmt.Errorf("%w: addr %#x (%s)", ErrNoMapping, addr, accessName(access))
		}
	}
	if e.Prot&access.prot() == 0 {
		return nil, fmt.Errorf("%w: %s access to %s page %#x (prot %s)",
			ErrProtection, accessName(access), e.Name, addr, e.Prot)
	}
	idx := e.pageIndex(addr)
	an := e.Amap[idx]
	if an == nil {
		// Demand zero-fill.
		pg, err := s.alloc()
		if err != nil {
			return nil, err
		}
		an = &Anon{Page: pg, Refs: 1}
		e.Amap[idx] = an
		s.Faults++
		s.ZeroFills++
		s.charge(s.Costs().PageFault + s.Costs().PageZeroFill)
		return pg, nil
	}
	if access == AccessWrite && e.COW && an.Refs > 1 {
		// Copy-on-write break.
		pg, err := s.alloc()
		if err != nil {
			return nil, err
		}
		pg.Data = an.Page.Data
		an.Refs--
		an = &Anon{Page: pg, Refs: 1}
		e.Amap[idx] = an
		s.Faults++
		s.COWCopies++
		s.charge(s.Costs().PageFault + s.Costs().PageCopy)
		return pg, nil
	}
	return an.Page, nil
}

func (s *Space) alloc() (*mem.Page, error) {
	if s.phys == nil {
		return &mem.Page{}, nil
	}
	pg, err := s.phys.Alloc()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoMem, err)
	}
	return pg, nil
}

func accessName(a Access) string {
	switch a {
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "read"
	}
}

// resolve returns the page and intra-page offset for addr, faulting it
// in as needed.
func (s *Space) resolve(addr uint32, access Access) (*mem.Page, uint32, error) {
	pg, err := s.Fault(addr, access)
	if err != nil {
		return nil, 0, err
	}
	return pg, addr & (mem.PageSize - 1), nil
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (s *Space) ReadBytes(addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := s.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills buf from memory at addr.
func (s *Space) ReadInto(addr uint32, buf []byte) error {
	done := 0
	for done < len(buf) {
		pg, off, err := s.resolve(addr+uint32(done), AccessRead)
		if err != nil {
			return err
		}
		n := copy(buf[done:], pg.Data[off:])
		done += n
	}
	return nil
}

// WriteBytes copies buf into memory at addr.
func (s *Space) WriteBytes(addr uint32, buf []byte) error {
	done := 0
	for done < len(buf) {
		pg, off, err := s.resolve(addr+uint32(done), AccessWrite)
		if err != nil {
			return err
		}
		n := copy(pg.Data[off:], buf[done:])
		done += n
	}
	return nil
}

// Read8 reads one byte.
func (s *Space) Read8(addr uint32) (byte, error) {
	pg, off, err := s.resolve(addr, AccessRead)
	if err != nil {
		return 0, err
	}
	return pg.Data[off], nil
}

// Write8 writes one byte.
func (s *Space) Write8(addr uint32, v byte) error {
	pg, off, err := s.resolve(addr, AccessWrite)
	if err != nil {
		return err
	}
	pg.Data[off] = v
	return nil
}

// Read32 reads a little-endian 32-bit word (the SM32 byte order).
func (s *Space) Read32(addr uint32) (uint32, error) {
	if addr&(mem.PageSize-1) <= mem.PageSize-4 {
		pg, off, err := s.resolve(addr, AccessRead)
		if err != nil {
			return 0, err
		}
		b := pg.Data[off : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	var b [4]byte
	if err := s.ReadInto(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Write32 writes a little-endian 32-bit word.
func (s *Space) Write32(addr uint32, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	if addr&(mem.PageSize-1) <= mem.PageSize-4 {
		pg, off, err := s.resolve(addr, AccessWrite)
		if err != nil {
			return err
		}
		copy(pg.Data[off:off+4], b[:])
		return nil
	}
	return s.WriteBytes(addr, b[:])
}

// FetchExec reads one byte with execute permission, used by the CPU
// instruction fetch path. Executing from a page without ProtExec (or
// with no mapping at all — e.g. unmapped module text) fails exactly like
// the hardware fault the paper's design relies on.
func (s *Space) FetchExec(addr uint32) (byte, error) {
	pg, off, err := s.resolve(addr, AccessExec)
	if err != nil {
		return 0, err
	}
	return pg.Data[off], nil
}

// Fork produces the child address space for fork(): shared entries stay
// shared (aliased amap), private entries become copy-on-write in both
// parent and child, exactly as uvmspace_fork arranges.
//
// One SecModule special case: entries that are shared only because of a
// client/handle force-share (inside the pair's share range) are
// logically private process memory, so the child receives an eager deep
// copy. Keeping them aliased would make the child share its stack and
// heap with the parent; marking them copy-on-write would break the
// parent's sharing with its handle. The paper's section 4.3 fork
// handling gives the child its own handle over its own memory, which
// presupposes exactly this copy.
func (s *Space) Fork() *Space {
	child := NewSpace(s.phys, s.clk)
	child.costs = s.costs
	child.HeapStart, child.HeapEnd = s.HeapStart, s.HeapEnd
	for _, e := range s.entries {
		if e.Shared {
			if s.Partner != nil && e.Start >= s.ShareStart && e.End <= s.ShareEnd {
				ce := &Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
					Amap: make(map[uint32]*Anon, len(e.Amap))}
				for idx, an := range e.Amap {
					pg, err := s.alloc()
					if err != nil {
						panic("vm: fork: " + err.Error())
					}
					pg.Data = an.Page.Data
					ce.Amap[idx] = &Anon{Page: pg, Refs: 1}
					s.charge(s.Costs().PageCopy)
				}
				child.entries = append(child.entries, ce)
				continue
			}
			child.entries = append(child.entries, e.alias())
			continue
		}
		e.COW = true
		ce := &Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
			Amap: make(map[uint32]*Anon, len(e.Amap)), COW: true}
		for idx, an := range e.Amap {
			an.Refs++
			ce.Amap[idx] = an
		}
		child.entries = append(child.entries, ce)
	}
	sort.Slice(child.entries, func(i, j int) bool { return child.entries[i].Start < child.entries[j].Start })
	return child
}

// ForceShareSpaces forcibly shares [start,end) of the client space into
// the handle space: every handle mapping in the range is unmapped, then
// the client's entries over the range are aliased into the handle so
// both reference the same anons. This is uvmspace_force_share from the
// paper's Figure 6. It also records the share range and partner link on
// both spaces so the modified fault handler and obreak keep future
// growth shared.
func ForceShareSpaces(handle, client *Space, start, end uint32) error {
	if err := ForceShare(handle, client, start, end); err != nil {
		return err
	}
	handle.Partner, client.Partner = client, handle
	handle.ShareStart, handle.ShareEnd = start, end
	client.ShareStart, client.ShareEnd = start, end
	handle.HeapStart, handle.HeapEnd = client.HeapStart, client.HeapEnd
	return nil
}

// ForceShare is the map-level worker (uvm_force_share): unmap map1's
// range, then duplicate-and-share map2's entries over the range.
func ForceShare(map1, map2 *Space, start, end uint32) error {
	if start%mem.PageSize != 0 || end%mem.PageSize != 0 || end <= start {
		return fmt.Errorf("vm: ForceShare [%#x,%#x): bad range", start, end)
	}
	map1.Unmap(start, end)
	for _, e := range map2.entries {
		if e.End <= start || e.Start >= end {
			continue
		}
		if e.Start < start || e.End > end {
			return fmt.Errorf("vm: ForceShare: entry %s [%#x,%#x) straddles share boundary",
				e.Name, e.Start, e.End)
		}
		e.COW = false
		alias := e.alias()
		if err := map1.insert(alias); err != nil {
			*alias.aliases--
			return err
		}
	}
	return nil
}

// Obreak implements the modified sys_obreak: it moves the heap break to
// newEnd, growing (or shrinking) the heap entry. For a SecModule pair —
// when the share range covers the heap — growth is performed as a shared
// mapping visible to the partner as well, per the paper's section 4.1.
func (s *Space) Obreak(newEnd uint32) error {
	newEnd = mem.PageRoundUp(newEnd)
	if newEnd < s.HeapStart {
		return fmt.Errorf("vm: obreak below heap start %#x", s.HeapStart)
	}
	heap := s.find(s.HeapStart)
	if heap == nil || heap.Name != "heap" {
		if s.HeapEnd != s.HeapStart {
			return fmt.Errorf("vm: heap entry missing")
		}
		if newEnd == s.HeapStart {
			return nil
		}
		var err error
		heap, err = s.Map(s.HeapStart, newEnd-s.HeapStart, ProtRW, "heap")
		if err != nil {
			return err
		}
	}
	shared := s.Partner != nil && s.HeapStart >= s.ShareStart && newEnd <= s.ShareEnd
	switch {
	case newEnd > heap.End:
		// Grow. Check for collision with the next entry.
		for _, e := range s.entries {
			if e != heap && e.Start < newEnd && e.End > heap.End {
				return fmt.Errorf("%w: heap growth to %#x hits %s", ErrOverlap, newEnd, e.Name)
			}
		}
		heap.End = newEnd
		if shared {
			heap.Shared = true
			// Keep the partner's aliased heap entry in sync so both
			// sides agree on the break without taking a fault.
			if pe := s.Partner.find(s.HeapStart); pe != nil && pe.Amap != nil &&
				sameAmap(pe.Amap, heap.Amap) {
				pe.End = newEnd
			}
			s.Partner.HeapEnd = newEnd
		}
	case newEnd < heap.End:
		// Shrink: drop pages past the new break (from every alias of a
		// shared heap at once, since they share the amap).
		base := (newEnd - heap.Start) >> mem.PageShift
		for idx, an := range heap.Amap {
			if idx >= base {
				s.dropAnon(an)
				delete(heap.Amap, idx)
			}
		}
		heap.End = newEnd
		if shared {
			if pe := s.Partner.find(s.HeapStart); pe != nil && sameAmap(pe.Amap, heap.Amap) {
				pe.End = newEnd
			}
			s.Partner.HeapEnd = newEnd
		}
	}
	s.HeapEnd = newEnd
	return nil
}

// sameAmap reports whether two amaps are the same map object (aliased).
func sameAmap(a, b map[uint32]*Anon) bool {
	if len(a) != len(b) {
		return false
	}
	// Maps are reference types; compare by writing through one and
	// observing the other is overkill — compare a sentinel insertion.
	const sentinel = ^uint32(0)
	a[sentinel] = nil
	_, ok := b[sentinel]
	delete(a, sentinel)
	return ok
}

// SharesPageWith reports whether addr resolves to the same physical
// frame in both spaces (without faulting new pages in: only already
// materialized pages count).
func SharesPageWith(a, b *Space, addr uint32) bool {
	pa := a.residentPage(addr)
	pb := b.residentPage(addr)
	return pa != nil && pa == pb
}

func (s *Space) residentPage(addr uint32) *mem.Page {
	e := s.find(addr)
	if e == nil {
		return nil
	}
	an := e.Amap[e.pageIndex(addr)]
	if an == nil {
		return nil
	}
	return an.Page
}

// Describe renders the address-space layout in the style of the paper's
// Figure 2, one line per entry, highest addresses first.
func (s *Space) Describe() string {
	var b strings.Builder
	for i := len(s.entries) - 1; i >= 0; i-- {
		e := s.entries[i]
		flags := ""
		if e.Shared {
			flags = " shared"
		}
		if e.COW {
			flags += " cow"
		}
		fmt.Fprintf(&b, "%08x-%08x %s %-12s%s\n", e.Start, e.End, e.Prot, e.Name, flags)
	}
	return b.String()
}
