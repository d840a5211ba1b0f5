package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
)

// The TLB must be invisible: a world whose TLBs are emptied before every
// operation is the uncached reference, and a world that keeps them must
// agree with it on every value, error text, counter, cycle and entry.

// tlbWorld is a handle/client pair force-shared over
// [0x400000, 0x7FFF0000) on the probeWorld pattern, plus the spaces
// later operations fork or create.
type tlbWorld struct {
	phys     *mem.Phys // nil for an unbacked world
	clk      *clock.Clock
	spaces   []*Space // handle, client, then forks and fresh spaces
	uncached bool
}

// The address regions operations pick from.
var tlbRegions = [...]uint32{
	0x00001000, // private text (r-x)
	0x00003000, // the handle's exec-only guard
	0x00400000, // shared data, one page materialized
	// The client's heap, changed only by Obreak: its shared growth
	// stretches the partner's alias without checking the partner's
	// other entries, so no op maps here.
	0x00500000,
	0x01000000, // mapped by the client after the handshake
	0x02000000, // free at first; MapSharedInternal maps here
	0x7FEFE000, // shared stack
	0x7FFEF000, // a client entry straddling the share-range end
}

const (
	tlbShareStart = 0x400000
	tlbShareEnd   = 0x7FFF0000
	tlbHeapStart  = 0x500000
	tlbMaxSpaces  = 6
)

func newTLBWorld(t *testing.T, unbacked, uncached bool) *tlbWorld {
	t.Helper()
	w := &tlbWorld{clk: clock.New(), uncached: uncached}
	if !unbacked {
		w.phys = mem.NewPhys(0)
	}
	handle, client := NewSpace(w.phys, w.clk), NewSpace(w.phys, w.clk)
	w.spaces = []*Space{handle, client}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mapIn := func(s *Space, start, size uint32, prot Prot, name string) {
		t.Helper()
		_, err := s.Map(start, size, prot, name)
		must(err)
	}
	for _, s := range w.spaces {
		mapIn(s, 0x1000, mem.PageSize, ProtRX, "text")
		e := s.FindEntry(0x1000)
		e.Prot = ProtRWX
		must(s.WriteBytes(0x1000, []byte{1, 2, 3, 4, 5}))
		e.Prot = ProtRX
	}
	mapIn(handle, 0x3000, mem.PageSize, ProtExec, "guard")
	mapIn(client, 0x400000, 2*mem.PageSize, ProtRW, "data")
	must(client.Write32(0x400010, 0xC0FFEE))
	client.HeapStart, client.HeapEnd = tlbHeapStart, tlbHeapStart
	must(client.Obreak(tlbHeapStart + 2*mem.PageSize))
	mapIn(client, 0x7FEFE000, 2*mem.PageSize, ProtRW, "stack")
	must(client.Write32(0x7FEFFFF8, 0x5157AC))
	must(ForceShareSpaces(handle, client, tlbShareStart, tlbShareEnd))
	mapIn(client, 0x01000000, 2*mem.PageSize, ProtRW, "mmap")
	mapIn(client, 0x7FFEF000, 2*mem.PageSize, ProtRW, "straddle")
	return w
}

// state renders everything an operation may change besides memory
// contents: each space's counters, heap and share bounds and entries,
// and the clock.
func (w *tlbWorld) state() string {
	var b strings.Builder
	for i, s := range w.spaces {
		fmt.Fprintf(&b, "space %d: faults=%d zero=%d cow=%d share=%d heap=[%#x,%#x) share=[%#x,%#x) partner=%v\n",
			i, s.Faults, s.ZeroFills, s.COWCopies, s.ShareFaults,
			s.HeapStart, s.HeapEnd, s.ShareStart, s.ShareEnd, s.Partner != nil)
		for _, e := range s.Entries() {
			fmt.Fprintf(&b, "  %#x-%#x %s %s shared=%v cow=%v pages=%d last=%v\n",
				e.Start, e.End, e.Prot, e.Name, e.Shared, e.COW, e.Resident(), e.lastAlias())
		}
	}
	fmt.Fprintf(&b, "cycles=%d\n", w.clk.Cycles())
	return b.String()
}

// Operation kinds.
const (
	opRead32 byte = iota
	opWrite32
	opRead8
	opWrite8
	opProbeWords
	opFetchExec
	opFetchExec32
	opReadBytes
	opMap
	opUnmap
	opFork
	opForceShare
	opMapShared
	opObreak
	opProtRaise
	opUnmapAll
	opSpawn
	opCached
	opCachedExec
	opKinds
)

// tlbOp is one operation. space picks the space it runs in, where picks
// a region and a page in it, off the offset in that page (the top four
// values reach the page's last bytes), and val a value or a count.
type tlbOp struct{ kind, space, where, off, val byte }

const tlbOpSize = 5

func encodeOps(ops ...tlbOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, o.kind, o.space, o.where, o.off, o.val)
	}
	return b
}

// at returns the tlbOp "where" byte for page of region r.
func at(r, page int) byte { return byte(page<<3 | r) }

func (o tlbOp) page() uint32 {
	return tlbRegions[o.where&7] + uint32(o.where>>3&3)*mem.PageSize
}

func (o tlbOp) addr() uint32 {
	off := uint32(o.off) * 16
	if o.off >= 0xFC {
		off = mem.PageSize - uint32(0x100-int(o.off))
	}
	return o.page() + off
}

func result(v any, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	return fmt.Sprint(v)
}

// apply runs o and renders its outcome.
func (w *tlbWorld) apply(o tlbOp) string {
	if w.uncached {
		w.clearTLBs()
	}
	s := w.spaces[int(o.space)%len(w.spaces)]
	other := w.spaces[int(o.val)%len(w.spaces)]
	addr := o.addr()
	npages := uint32(o.val%3) + 1
	switch o.kind % opKinds {
	case opRead32:
		return result(s.Read32(addr))
	case opWrite32:
		return result(nil, s.Write32(addr, uint32(o.val)*0x01010101))
	case opRead8:
		return result(s.Read8(addr))
	case opWrite8:
		return result(nil, s.Write8(addr, o.val))
	case opProbeWords:
		// The uncached world is the reference: one Read32 per word up
		// to the first error.
		var words [8]uint32
		n := int(o.val%8) + 1
		if !w.uncached {
			return fmt.Sprint(words[:s.ProbeWords(addr, words[:n])])
		}
		for i := 0; i < n; i++ {
			v, err := s.Read32(addr + uint32(4*i))
			if err != nil {
				return fmt.Sprint(words[:i])
			}
			words[i] = v
		}
		return fmt.Sprint(words[:n])
	case opFetchExec:
		return result(s.FetchExec(addr))
	case opFetchExec32:
		return result(s.FetchExec32(addr))
	case opReadBytes:
		return result(s.ReadBytes(addr, int(o.val%8)+1))
	case opMap:
		if o.where&7 == 3 {
			return "heap region"
		}
		prot := [...]Prot{ProtRW, ProtRX, ProtRWX, ProtExec}[o.off%4]
		_, err := s.Map(o.page(), npages*mem.PageSize, prot, "map")
		return result(nil, err)
	case opUnmap:
		s.Unmap(o.page(), o.page()+npages*mem.PageSize)
	case opFork:
		if len(w.spaces) < tlbMaxSpaces {
			w.spaces = append(w.spaces, s.Fork())
		}
	case opForceShare:
		if s != other {
			return result(nil, ForceShareSpaces(s, other, tlbShareStart, tlbShareEnd))
		}
	case opMapShared:
		if s != other {
			_, _, err := MapSharedInternal(s, other, tlbRegions[5]+uint32(o.where>>3&3)*mem.PageSize,
				mem.PageSize, ProtRW, "shm")
			return result(nil, err)
		}
	case opObreak:
		return result(nil, s.Obreak(s.HeapStart+uint32(o.off%4)*mem.PageSize))
	case opProtRaise:
		// kern.WriteText and ReadText: raise the entry's protection in
		// place, access, restore.
		e := s.FindEntry(addr)
		if e == nil {
			return "no entry"
		}
		saved := e.Prot
		defer func() { e.Prot = saved }()
		if o.val%2 == 0 {
			e.Prot |= ProtWrite
			return result(nil, s.WriteBytes(addr, []byte{o.val, o.off}))
		}
		e.Prot |= ProtRead
		return result(s.ReadBytes(addr, 2))
	case opUnmapAll:
		s.UnmapAll()
	case opSpawn:
		if len(w.spaces) < tlbMaxSpaces {
			w.spaces = append(w.spaces, NewSpace(w.phys, w.clk))
		}
	case opCached, opCachedExec:
		// The uncached world always misses; checkProbe checks a hit.
		if !w.uncached {
			return w.checkProbe(s, addr, [...]Access{AccessRead, AccessWrite}[o.val%2], o.kind%opKinds == opCachedExec)
		}
	}
	return ""
}

func (w *tlbWorld) clearTLBs() {
	for _, s := range w.spaces {
		s.tlb = [tlbSlots]tlbSlot{}
		s.itlb = [itlbSlots]tlbSlot{}
	}
}

// checkProbe probes s's TLB for addr. The probe must change no counter,
// cycle or slot, and a hit must return the page translate returns with
// every TLB emptied, without faulting or charging. It returns "" when
// all holds, so the uncached world's empty outcome matches it.
func (w *tlbWorld) checkProbe(s *Space, addr uint32, access Access, exec bool) string {
	type tlbs struct {
		tlb  [tlbSlots]tlbSlot
		itlb [itlbSlots]tlbSlot
	}
	saved := make([]tlbs, len(w.spaces))
	for i, sp := range w.spaces {
		saved[i] = tlbs{sp.tlb, sp.itlb}
	}
	before := w.state()
	var pg *mem.Page
	var hit bool
	if exec {
		access = AccessExec
		pg, hit = s.CachedExec(addr)
	} else {
		pg, hit = s.Cached(addr, access)
	}
	for i, sp := range w.spaces {
		if (tlbs{sp.tlb, sp.itlb}) != saved[i] {
			return fmt.Sprintf("probe changed space %d's slots", i)
		}
	}
	if after := w.state(); after != before {
		return "probe changed the state:\n" + after
	}
	if !hit {
		return ""
	}
	w.clearTLBs()
	want, err := s.translate(addr, access)
	if err != nil || want != pg || w.state() != before {
		return fmt.Sprintf("probe hit; translate without TLBs: same page %v, error %v, state:\n%s",
			want == pg, err, w.state())
	}
	for i, sp := range w.spaces {
		sp.tlb, sp.itlb = saved[i].tlb, saved[i].itlb
	}
	return ""
}

// tlbSeeds are scenarios each of which needs one of the TLB's
// invalidations; FuzzSpaceTLB starts from them, in both a backed and an
// unbacked world.
var tlbSeeds = [][]tlbOp{
	// Unmap removes a cached page.
	{
		{opRead32, 1, at(2, 0), 1, 0}, {opUnmap, 1, at(2, 0), 0, 0}, {opRead32, 1, at(2, 0), 1, 0},
	},
	// Unmap splits an entry the other space aliases.
	{
		{opRead32, 0, at(2, 1), 1, 0}, {opRead32, 1, at(2, 1), 1, 0},
		{opUnmap, 1, at(2, 0), 0, 0}, {opRead32, 1, at(2, 1), 1, 0}, {opWrite32, 0, at(2, 1), 1, 7},
		{opRead32, 1, at(2, 1), 1, 0},
	},
	// UnmapAll removes every cached page.
	{
		{opRead32, 1, at(6, 1), 0xFE, 0}, {opUnmapAll, 1, 0, 0, 0}, {opRead32, 1, at(6, 1), 0xFE, 0},
	},
	// Fork makes a cached writable page copy-on-write; a page read
	// after the fork needs a COW break before its first write.
	{
		{opMap, 1, at(5, 0), 0, 0}, {opWrite32, 1, at(5, 0), 0, 3}, {opFork, 1, 0, 0, 0},
		{opWrite32, 1, at(5, 0), 0, 4}, {opRead32, 2, at(5, 0), 0, 0},
		{opFork, 2, 0, 0, 0}, {opRead32, 2, at(5, 0), 0, 0}, {opWrite32, 2, at(5, 0), 0, 5},
		{opRead32, 3, at(5, 0), 0, 0},
	},
	// A shrinking heap drops a cached page.
	{
		{opWrite32, 1, at(3, 1), 2, 9}, {opRead32, 0, at(3, 1), 2, 0}, {opObreak, 1, 0, 1, 0},
		{opRead32, 1, at(3, 1), 2, 0}, {opRead32, 0, at(3, 1), 2, 0},
		{opObreak, 1, 0, 3, 0}, {opRead32, 0, at(3, 1), 2, 0},
	},
	// The client writes a page that is both shared and copy-on-write:
	// mapped after the handshake and forked before the handle first
	// touched it. The COW break replaces the page in the amap the
	// handle aliases.
	{
		{opWrite32, 1, at(4, 0), 0, 1}, {opFork, 1, 0, 0, 0}, {opRead32, 0, at(4, 0), 0, 0},
		{opWrite32, 1, at(4, 0), 0, 2}, {opRead32, 0, at(4, 0), 0, 0}, {opRead32, 2, at(4, 0), 0, 0},
	},
	// kern.WriteText raises and restores Prot in place.
	{
		{opFetchExec32, 0, at(0, 0), 0, 0}, {opProtRaise, 0, at(0, 0), 0, 0},
		{opWrite32, 0, at(0, 0), 0, 5}, {opFetchExec, 0, at(0, 0), 0, 0},
		{opProtRaise, 0, at(1, 0), 0, 1}, {opRead8, 0, at(1, 0), 0, 0},
	},
	// Partner aliases, page-crossing words and fetches, protection
	// faults on cached pages, and a second handshake.
	{
		{opRead32, 0, at(4, 1), 0xFE, 0}, {opFetchExec32, 0, at(4, 0), 0, 0},
		{opProbeWords, 0, at(7, 0), 0, 5}, {opFetchExec32, 0, at(0, 0), 0xFE, 0},
		{opWrite8, 0, at(0, 0), 3, 1}, {opReadBytes, 1, at(6, 0), 0xFD, 7},
		{opForceShare, 0, 0, 0, 1}, {opRead32, 0, at(4, 0), 0, 0},
	},
	// Probes after fills, protection changes, COW forks and unmaps.
	{
		{opRead32, 1, at(2, 0), 1, 0}, {opCached, 1, at(2, 0), 1, 0}, {opCached, 1, at(2, 0), 1, 1},
		{opFetchExec, 0, at(0, 0), 0, 0}, {opCachedExec, 0, at(0, 0), 0, 0}, {opCached, 0, at(0, 0), 0, 0},
		{opProtRaise, 0, at(0, 0), 0, 0}, {opCachedExec, 0, at(0, 0), 0, 0},
		{opMap, 1, at(5, 0), 0, 0}, {opWrite32, 1, at(5, 0), 0, 3}, {opFork, 1, 0, 0, 0},
		{opCached, 1, at(5, 0), 0, 1}, {opRead32, 1, at(5, 0), 0, 0}, {opCached, 1, at(5, 0), 0, 1},
		{opCached, 1, at(5, 0), 0, 0}, {opUnmap, 1, at(5, 0), 0, 0}, {opCached, 1, at(5, 0), 0, 0},
	},
	// A fresh space linked by MapSharedInternal.
	{
		{opSpawn, 0, 0, 0, 0}, {opMapShared, 1, at(5, 0), 0, 2}, {opWrite32, 2, at(5, 0), 0, 6},
		{opRead32, 1, at(5, 0), 0, 0}, {opFork, 2, 0, 0, 0}, {opUnmap, 1, at(5, 0), 0, 0},
		{opRead32, 3, at(5, 0), 0, 0},
	},
	// In an unbacked world, a fresh space caches a page under an epoch
	// ahead of the one it then joins; the slot must not come back to
	// life when the joined epoch catches up.
	{
		{opSpawn, 0, 0, 0, 0}, {opMap, 2, at(5, 1), 0, 0},
		{opUnmap, 2, at(5, 3), 0, 0}, {opUnmap, 2, at(5, 3), 0, 0}, {opUnmap, 2, at(5, 3), 0, 0},
		{opUnmap, 2, at(5, 3), 0, 0}, {opRead32, 2, at(5, 1), 0, 0},
		{opMapShared, 0, at(5, 0), 0, 2}, {opUnmap, 2, at(5, 1), 0, 0}, {opRead32, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opRead32, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opRead32, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opRead32, 2, at(5, 1), 0, 0},
	},
	// The same for a slot of the fetch TLB.
	{
		{opSpawn, 0, 0, 0, 0}, {opMap, 2, at(5, 1), 1, 0},
		{opUnmap, 2, at(5, 3), 0, 0}, {opUnmap, 2, at(5, 3), 0, 0}, {opUnmap, 2, at(5, 3), 0, 0},
		{opUnmap, 2, at(5, 3), 0, 0}, {opFetchExec, 2, at(5, 1), 0, 0},
		{opMapShared, 0, at(5, 0), 0, 2}, {opUnmap, 2, at(5, 1), 0, 0}, {opFetchExec, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opFetchExec, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opFetchExec, 2, at(5, 1), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opFetchExec, 2, at(5, 1), 0, 0},
	},
	// Runs of words across a page boundary, into an unmapped page, and
	// over a partner entry the first word aliases.
	{
		{opProbeWords, 0, at(6, 0), 0xFC, 5}, {opProbeWords, 0, at(6, 1), 0xFD, 7},
		{opProbeWords, 0, at(4, 0), 0xFE, 3}, {opWrite32, 1, at(4, 1), 0, 9},
		{opProbeWords, 0, at(4, 0), 0xFC, 4},
	},
}

// FuzzSpaceTLB runs one operation sequence in a world that keeps its
// TLBs and in one that empties them before every operation, and fails
// on the first difference in an outcome or in the worlds' state.
func FuzzSpaceTLB(f *testing.F) {
	for _, ops := range tlbSeeds {
		f.Add(false, encodeOps(ops...))
		f.Add(true, encodeOps(ops...))
	}
	f.Fuzz(func(t *testing.T, unbacked bool, data []byte) {
		if len(data) > 64*tlbOpSize {
			data = data[:64*tlbOpSize]
		}
		cached, ref := newTLBWorld(t, unbacked, false), newTLBWorld(t, unbacked, true)
		for i := 0; i+tlbOpSize <= len(data); i += tlbOpSize {
			o := tlbOp{data[i], data[i+1], data[i+2], data[i+3], data[i+4]}
			got, want := cached.apply(o), ref.apply(o)
			if got != want {
				t.Fatalf("op %d %+v: cached %q, uncached %q", i/tlbOpSize, o, got, want)
			}
			if got, want := cached.state(), ref.state(); got != want {
				t.Fatalf("op %d %+v: state differs\ncached:\n%suncached:\n%s", i/tlbOpSize, o, got, want)
			}
		}
	})
}

// sharedHeap maps a two-page heap at 0x500000 in a and aliases it into
// b.
func sharedHeap(t *testing.T, a, b *Space) {
	t.Helper()
	a.HeapStart, a.HeapEnd = 0x500000, 0x502000
	if _, _, err := MapSharedInternal(a, b, 0x500000, 2*mem.PageSize, ProtRW, "heap"); err != nil {
		t.Fatal(err)
	}
}

// shrinkDrops writes a marker to the heap's second page in a, reads it
// through b (caching the page there), shrinks a's heap to one page and
// grows it back. b's entry covers the second page throughout, but its
// frame went with the shrink, so b must zero-fill a new one instead of
// reading the cached frame.
func shrinkDrops(t *testing.T, a, b *Space) {
	t.Helper()
	if err := a.Write32(0x501000, 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Read32(0x501000); err != nil || v != 0xAB {
		t.Fatalf("b reads %#x, %v before the shrink", v, err)
	}
	if err := a.Obreak(0x501000); err != nil {
		t.Fatal(err)
	}
	zero := b.ZeroFills
	if v, err := b.Read32(0x501000); err != nil || v != 0 || b.ZeroFills != zero+1 {
		t.Fatalf("b reads %#x, %v with %d zero-fills after the shrink; want a fresh zero page",
			v, err, b.ZeroFills-zero)
	}
	if err := a.Obreak(0x502000); err != nil {
		t.Fatal(err)
	}
}

// TestMapSharedJoinsEpochs: unbacked spaces start on epochs of their
// own, and MapSharedInternal puts the second on the first's, so a heap
// shrink in one drops the other's cached page.
func TestMapSharedJoinsEpochs(t *testing.T) {
	a, b := NewSpace(nil, nil), NewSpace(nil, nil)
	sharedHeap(t, a, b)
	shrinkDrops(t, a, b)
}

// TestJoinRetiresOldEpoch: when a space with a fork relative joins
// another epoch, the relative stays on the old one, which the new
// epoch's bumps no longer reach; so the old epoch retires for good.
// The relative neither caches under it nor revives it with a bump of
// its own.
func TestJoinRetiresOldEpoch(t *testing.T) {
	b := NewSpace(nil, nil)
	relative := b.Fork()
	sharedHeap(t, b, relative)
	if _, err := relative.Read32(0x501000); err != nil {
		t.Fatal(err)
	}
	// b (through ForceShare) joins c's epoch and leaves relative behind.
	if err := ForceShare(b, NewSpace(nil, nil), 0x400000, 0x401000); err != nil {
		t.Fatal(err)
	}
	shrinkDrops(t, b, relative)
	relative.Unmap(0x600000, 0x601000)
	shrinkDrops(t, b, relative)
}

// TestFetchKeepsDataSlot: module text at 0xA0000000 and the page at
// 0x0043F000, where a native client writes the call frame the module
// reads, share a data-TLB slot. Fetches fill the fetch TLB instead, so
// the two pages stay cached together.
func TestFetchKeepsDataSlot(t *testing.T) {
	const text, frame = 0xA0000000, 0x0043F000
	s := NewSpace(mem.NewPhys(0), clock.New())
	for _, m := range []struct {
		start uint32
		prot  Prot
	}{{text, ProtRX}, {frame, ProtRW}} {
		if _, err := s.Map(m.start, mem.PageSize, m.prot, "m"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.FetchExec(text); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read32(frame); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CachedExec(text); !ok {
		t.Error("text page evicted from the fetch TLB")
	}
	if _, ok := s.Cached(frame, AccessRead); !ok {
		t.Error("frame page not cached")
	}
}

// BenchmarkRead32 times a warm Read32: a TLB hit on a resident page.
func BenchmarkRead32(b *testing.B) {
	s := NewSpace(mem.NewPhys(0), clock.New())
	if _, err := s.Map(0x7000, mem.PageSize, ProtRW, "stack"); err != nil {
		b.Fatal(err)
	}
	if err := s.Write32(0x7FF0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read32(0x7FF0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchExec times a warm opcode fetch: a TLB hit on resident
// text.
func BenchmarkFetchExec(b *testing.B) {
	s := NewSpace(mem.NewPhys(0), clock.New())
	if _, err := s.Map(0x1000, mem.PageSize, ProtRX, "text"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Fault(0x1000, AccessExec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FetchExec(0x1000); err != nil {
			b.Fatal(err)
		}
	}
}
