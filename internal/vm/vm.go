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
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// amap is a mapping's anonymous memory: its resident pages, sorted by
// page index within the entry. Entries aliasing one amap share it by
// pointer, so a page materialized by either side is immediately
// visible to the other; refs counts them, and the anons go with the
// last (see release).
type amap struct {
	pages []anonRef
	refs  int
}

// anonRef is one resident page of an amap.
type anonRef struct {
	idx uint32 // page index within the entry
	an  *Anon
}

// lookup returns where page idx is or belongs in a.pages, and whether
// it is resident.
func (a *amap) lookup(idx uint32) (int, bool) {
	return slices.BinarySearchFunc(a.pages, idx, func(r anonRef, idx uint32) int { return cmp.Compare(r.idx, idx) })
}

// Entry is one contiguous mapping [Start,End) in an address space.
// Anonymous memory lives in its amap, by page index relative to Start.
// When Shared is set the amap is aliased between spaces (writes are
// mutually visible); otherwise fork marks both sides copy-on-write.
type Entry struct {
	Start, End uint32
	Prot       Prot
	Name       string
	// Shared marks the entry as write-shared (SecModule force-share or
	// explicitly shared mappings). Non-shared entries become COW on fork.
	Shared bool
	// COW marks the entry copy-on-write: anons with Refs>1 must be
	// copied before the first write.
	COW  bool
	amap *amap
}

func (e *Entry) contains(addr uint32) bool { return addr >= e.Start && addr < e.End }

func (e *Entry) pageIndex(addr uint32) uint32 {
	return (mem.PageAlign(addr) - e.Start) >> mem.PageShift
}

// Resident returns the number of e's pages that are materialized.
func (e *Entry) Resident() int { return len(e.amap.pages) }

// Anon returns the anon holding page idx of e (counted from Start), or
// nil when that page is not materialized.
func (e *Entry) Anon(idx uint32) *Anon {
	if i, ok := e.amap.lookup(idx); ok {
		return e.amap.pages[i].an
	}
	return nil
}

// lastAlias reports whether no other entry aliases e's amap, so the
// amap (and its anon references) goes when e does.
func (e *Entry) lastAlias() bool { return e.amap.refs <= 1 }

// spares holds the map entries, anons and amaps a machine's spaces
// released, for the machine's next ones: each list is LIFO and holds
// at most maxSpares. An object goes on a list only when nothing refers
// to it any more, and an entry only after the epoch bump that retires
// every TLB slot that could hold it. Taking one off resets it to
// exactly what building it fresh makes. Spaces without a mem.Phys have
// no spares: like their pages, their objects are always fresh.
type spares struct {
	entries []*Entry
	anons   []*Anon
	amaps   []*amap
}

// maxSpares bounds each of a machine's spare lists.
const maxSpares = 1024

// sparesOf returns phys's spares, creating them on first use.
func sparesOf(phys *mem.Phys) *spares {
	if phys.Spares == nil {
		phys.Spares = new(spares)
	}
	return phys.Spares.(*spares)
}

// pop takes the most recently released object off list, or returns nil.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// push puts x on list unless the list is full.
func push[T any](list *[]*T, x *T) {
	if len(*list) < maxSpares {
		*list = append(*list, x)
	}
}

// entry returns an entry holding e.
func (sp *spares) entry(e Entry) *Entry {
	var x *Entry
	if sp != nil {
		x = pop(&sp.entries)
	}
	if x == nil {
		x = new(Entry)
	}
	*x = e
	return x
}

// anon returns an anon of pg with one reference.
func (sp *spares) anon(pg *mem.Page) *Anon {
	var x *Anon
	if sp != nil {
		x = pop(&sp.anons)
	}
	if x == nil {
		x = new(Anon)
	}
	*x = Anon{Page: pg, Refs: 1}
	return x
}

// amap returns an empty amap with one alias. A spare keeps the
// capacity of its page list.
func (sp *spares) amap() *amap {
	var x *amap
	if sp != nil {
		x = pop(&sp.amaps)
	}
	if x == nil {
		x = new(amap)
	}
	x.refs = 1
	return x
}

func (sp *spares) putEntry(e *Entry) {
	*e = Entry{}
	if sp != nil {
		push(&sp.entries, e)
	}
}

func (sp *spares) putAnon(an *Anon) {
	*an = Anon{}
	if sp != nil {
		push(&sp.anons, an)
	}
}

func (sp *spares) putAmap(a *amap) {
	clear(a.pages)
	a.pages, a.refs = a.pages[:0], 0
	if sp != nil {
		push(&sp.amaps, a)
	}
}

// alias returns a new entry of s over e's amap: both become
// write-shared and the amap counts one more alias. The caller maps the
// result.
func (s *Space) alias(e *Entry) *Entry {
	e.amap.refs++
	e.Shared = true
	return s.spares.entry(Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
		Shared: true, amap: e.amap})
}

// Space is one process's address space.
type Space struct {
	phys *mem.Phys
	clk  *clock.Clock
	// spares are the machine's recycled objects (nil without phys).
	spares *spares
	// costs is the machine's cost table for fault-service charges
	// (SetCosts); nil falls back to the baseline table, so unit tests
	// building bare spaces keep the historical charges.
	costs *clock.Costs

	entries []*Entry // sorted by Start, non-overlapping
	// entryBuf backs entries until a space maps more than it holds,
	// which most never do.
	entryBuf [8]*Entry

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

	// epoch is the mapping generation the TLBs' slots are checked
	// against, shared by every space whose pages this one may share
	// (see NewSpace and join).
	epoch *uint64
	tlb   [tlbSlots]tlbSlot  // reads and writes
	itlb  [itlbSlots]tlbSlot // instruction fetches
}

// The TLBs cache a space's successful translations: fault's
// side-effect-free return, for a page that is already resident and
// needs no copy-on-write break for the access. A miss runs fault and
// fills the slot; a failed fault is never cached. Fetches have a TLB of
// their own, so code never evicts the data it works on: in a handle's
// space the module text page (0xA0000000) and the top page of the
// native client's scratch area (0x0043F000), where the call frame is
// written, share a data slot.
const (
	tlbBits   = 3
	tlbSlots  = 1 << tlbBits
	itlbBits  = 2
	itlbSlots = 1 << itlbBits
	// tlbHash spreads page numbers over the slots by multiplicative
	// hashing: the layout puts module text at 0xA0000000 and the secret
	// stack at 0x90000000, which collide on their low 16 bits.
	tlbHash = 0x9E3779B1
)

// retired is the value of an epoch no space may cache under any more
// (see join).
const retired = ^uint64(0)

// tlbSlot is one cached translation of page vpn. It hits while the
// space's epoch is still epoch and entry's current Prot allows the
// access; a write also needs writable, which records that the page
// needed no copy-on-write break when the slot was filled.
type tlbSlot struct {
	vpn      uint32
	writable bool
	epoch    uint64
	entry    *Entry
	page     *mem.Page
}

// NewSpace returns an empty address space drawing frames from phys and
// charging fault-service costs to clk. Either may be nil in unit tests:
// nil phys allocates untracked pages, and nil clk skips charging.
//
// Every space drawing frames from one phys shares phys.Epoch, the epoch
// its TLB is checked against; a space with nil phys starts on an epoch
// of its own, and the functions that make two spaces share memory
// (ForceShare, MapSharedInternal, Fork) put them on one epoch.
func NewSpace(phys *mem.Phys, clk *clock.Clock) *Space {
	s := &Space{phys: phys, clk: clk}
	s.entries = s.entryBuf[:0]
	if phys != nil {
		s.epoch = &phys.Epoch
		s.spares = sparesOf(phys)
	} else {
		s.epoch = new(uint64)
		*s.epoch = 1
	}
	return s
}

// bump invalidates every translation cached under s's epoch, in s and
// in every space sharing the epoch. Whatever removes, replaces,
// re-counts or re-flags a page a slot may hold calls it; adding a page
// or an entry needs no bump, since no slot can hold an address that had
// no translation.
func (s *Space) bump() {
	if *s.epoch != retired {
		*s.epoch++
	}
}

// join puts s on o's epoch before the two share memory, so a change
// either makes to a shared page reaches the other's TLB. Spaces on one
// mem.Phys already share its epoch. Any other space still on s's old
// epoch, such as a fork relative, would miss the bumps on o's, so the
// old epoch retires: its spaces stop caching.
func (s *Space) join(o *Space) {
	if s.epoch == o.epoch {
		return
	}
	*s.epoch = retired
	s.epoch = o.epoch
	s.tlb = [tlbSlots]tlbSlot{}
	s.itlb = [itlbSlots]tlbSlot{}
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
	slices.SortFunc(s.entries, byStart)
	return nil
}

// byStart orders entries by start address, the order of Space.entries.
func byStart(a, b *Entry) int { return cmp.Compare(a.Start, b.Start) }

// Map establishes an anonymous mapping [start,start+size) with the given
// protection. start and size must be page aligned. This is the analogue
// of uvm_map for MAP_ANON fixed mappings.
func (s *Space) Map(start, size uint32, prot Prot, name string) (*Entry, error) {
	if start%mem.PageSize != 0 || size == 0 || size%mem.PageSize != 0 {
		return nil, fmt.Errorf("vm: Map(%#x,%#x): unaligned", start, size)
	}
	e := s.spares.entry(Entry{Start: start, End: start + size, Prot: prot, Name: name, amap: s.spares.amap()})
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
	s2.join(s1)
	e1, err := s1.Map(start, size, prot, name)
	if err != nil {
		return nil, nil, err
	}
	e2 := s2.alias(e1)
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
	s.bump()
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].End > start })
	j := i
	for j < len(s.entries) && s.entries[j].Start < end {
		j++
	}
	if i == j {
		return
	}
	// Only the first overlapping entry can keep a left part, and only
	// the last a right part.
	var rest [2]*Entry
	n := 0
	if e := s.entries[i]; e.Start < start {
		rest[n] = s.remainder(e, e.Start, start)
		n++
	}
	if e := s.entries[j-1]; e.End > end {
		rest[n] = s.remainder(e, end, e.End)
		n++
	}
	for _, e := range s.entries[i:j] {
		s.release(e, max(start, e.Start), min(end, e.End))
	}
	s.entries = slices.Replace(s.entries, i, j, rest[:n]...)
}

// remainder returns a new entry over [lo,hi), the part of e an Unmap
// keeps, holding e's pages in that range. When e's amap stays with
// other aliases, the remainder takes its own reference to each page;
// otherwise it inherits e's.
func (s *Space) remainder(e *Entry, lo, hi uint32) *Entry {
	r := s.spares.entry(Entry{Start: lo, End: hi, Prot: e.Prot, Name: e.Name,
		Shared: e.Shared, COW: e.COW, amap: s.spares.amap()})
	base, limit := (lo-e.Start)>>mem.PageShift, (hi-e.Start)>>mem.PageShift
	last := e.lastAlias()
	for _, p := range e.amap.pages {
		if p.idx >= base && p.idx < limit {
			r.amap.pages = append(r.amap.pages, anonRef{p.idx - base, p.an})
			if !last {
				p.an.Refs++
			}
		}
	}
	return r
}

// release takes e out of its space. The amap's last alias drops the
// pages in [lo,hi) (the pages outside it, if any, have passed to an
// Unmap's remainders) and the amap goes with it; any other alias just
// leaves the amap to the rest. The caller has bumped the epoch, so no
// TLB slot holds e any more and it can be reused.
func (s *Space) release(e *Entry, lo, hi uint32) {
	if e.lastAlias() {
		base, limit := (lo-e.Start)>>mem.PageShift, (hi-e.Start)>>mem.PageShift
		for _, p := range e.amap.pages {
			if p.idx >= base && p.idx < limit {
				s.dropAnon(p.an)
			}
		}
		s.spares.putAmap(e.amap)
	} else {
		e.amap.refs--
	}
	s.spares.putEntry(e)
}

// dropAnon drops one amap reference to an and frees its frame and the
// anon with the last. The allocator hands freed frames out again, so
// every caller bumps the epoch first: no TLB slot may keep the page.
func (s *Space) dropAnon(an *Anon) {
	an.Refs--
	if an.Refs <= 0 && s.phys != nil {
		s.phys.Free(an.Page)
		s.spares.putAnon(an)
	}
}

// UnmapAll removes every mapping (process teardown).
func (s *Space) UnmapAll() {
	s.bump()
	for _, e := range s.entries {
		s.release(e, e.Start, e.End)
	}
	clear(s.entries)
	s.entries = s.entries[:0]
}

// Fault resolves a page fault at addr for the given access kind,
// materializing, copying or sharing the page as required, and returns
// the physical page. It implements the paper's modified uvm_fault: when
// the faulting address has no local mapping but lies inside the
// SecModule share range and the partner space has a valid mapping for
// it, the partner's entry is aliased into this space so the pair keeps
// sharing memory that was mapped after the handshake.
//
// A failed fault wraps ErrNoMapping or ErrProtection with the address,
// the access kind and the entry involved.
func (s *Space) Fault(addr uint32, access Access) (*mem.Page, error) {
	_, an, err := s.fault(addr, access)
	if err != nil {
		return nil, s.faultError(addr, access, err)
	}
	return an.Page, nil
}

// faultError details a bare sentinel returned by fault. fault returns
// one only after its last change to the map entries, so the lookups
// here see the entries fault saw.
func (s *Space) faultError(addr uint32, access Access, err error) error {
	switch err {
	case ErrProtection:
		e := s.find(addr)
		return fmt.Errorf("%w: %s access to %s page %#x (prot %s)",
			ErrProtection, accessName(access), e.Name, addr, e.Prot)
	case ErrNoMapping:
		// A partner entry at an unmapped address means fault refused to
		// alias it for straddling the share range.
		if pe := s.partnerEntry(addr); pe != nil {
			return fmt.Errorf("%w: partner entry %s [%#x,%#x) exceeds share range",
				ErrNoMapping, pe.Name, pe.Start, pe.End)
		}
		return fmt.Errorf("%w: addr %#x (%s)", ErrNoMapping, addr, accessName(access))
	}
	return err
}

// partnerEntry returns the partner's entry at addr when addr lies in the
// share range, or nil.
func (s *Space) partnerEntry(addr uint32) *Entry {
	if s.Partner == nil || addr < s.ShareStart || addr >= s.ShareEnd {
		return nil
	}
	return s.Partner.find(addr)
}

// fault is Fault without the error detail: no mapping and a protection
// violation come back as the bare ErrNoMapping and ErrProtection, so an
// expected fault costs no allocation. On success it returns the entry
// and the anon now holding addr's page.
func (s *Space) fault(addr uint32, access Access) (*Entry, *Anon, error) {
	e := s.find(addr)
	if e == nil {
		// Modified uvm_fault: consult the partner space inside the
		// share range (paper section 4.1).
		pe := s.partnerEntry(addr)
		if pe == nil {
			return nil, nil, ErrNoMapping
		}
		// Clip the alias to the share range so a partner entry
		// straddling the boundary cannot leak outside it.
		if pe.Start < s.ShareStart || pe.End > s.ShareEnd {
			return nil, nil, ErrNoMapping
		}
		alias := s.alias(pe)
		if err := s.insert(alias); err != nil {
			pe.amap.refs--
			return nil, nil, err
		}
		s.ShareFaults++
		s.Faults++
		s.charge(s.Costs().PageFault)
		e = alias
	}
	if e.Prot&access.prot() == 0 {
		return nil, nil, ErrProtection
	}
	idx := e.pageIndex(addr)
	i, resident := e.amap.lookup(idx)
	if !resident {
		// Demand zero-fill.
		pg, err := s.alloc()
		if err != nil {
			return nil, nil, err
		}
		an := s.spares.anon(pg)
		e.amap.pages = slices.Insert(e.amap.pages, i, anonRef{idx, an})
		s.Faults++
		s.ZeroFills++
		s.charge(s.Costs().PageFault + s.Costs().PageZeroFill)
		return e, an, nil
	}
	an := e.amap.pages[i].an
	if access == AccessWrite && e.COW && an.Refs > 1 {
		// Copy-on-write break. The amap may be aliased by other
		// spaces, whose slots still hold the old page.
		pg, err := s.alloc()
		if err != nil {
			return nil, nil, err
		}
		pg.Data = an.Page.Data
		an.Refs--
		an = s.spares.anon(pg)
		e.amap.pages[i].an = an
		s.bump()
		s.Faults++
		s.COWCopies++
		s.charge(s.Costs().PageFault + s.Costs().PageCopy)
		return e, an, nil
	}
	return e, an, nil
}

// slot returns the TLB slot for addr's page and the access kind.
func (s *Space) slot(addr uint32, access Access) *tlbSlot {
	vpn := addr >> mem.PageShift
	if access == AccessExec {
		return &s.itlb[vpn*tlbHash>>(32-itlbBits)]
	}
	return &s.tlb[vpn*tlbHash>>(32-tlbBits)]
}

// hit reports whether t holds a live translation of addr's page for the
// access.
func (s *Space) hit(t *tlbSlot, addr uint32, access Access) bool {
	return t.vpn == addr>>mem.PageShift && t.epoch == *s.epoch &&
		t.entry.Prot&access.prot() != 0 && (t.writable || access != AccessWrite)
}

// Cached returns addr's page for a read or write access when the TLB
// holds it, and false otherwise. It never faults, charges or fills a
// slot: an interpreter tries it first and takes the full path (Read32,
// Write32, ...) on a miss.
func (s *Space) Cached(addr uint32, access Access) (*mem.Page, bool) {
	t := &s.tlb[(addr>>mem.PageShift)*tlbHash>>(32-tlbBits)]
	if s.hit(t, addr, access) {
		return t.page, true
	}
	return nil, false
}

// CachedExec is Cached for an instruction fetch, from the fetch TLB.
func (s *Space) CachedExec(addr uint32) (*mem.Page, bool) {
	t := &s.itlb[(addr>>mem.PageShift)*tlbHash>>(32-itlbBits)]
	if s.hit(t, addr, AccessExec) {
		return t.page, true
	}
	return nil, false
}

// translate is fault behind the TLBs: a hit returns what fault's
// side-effect-free return would, and a miss runs fault and caches what
// it returns.
func (s *Space) translate(addr uint32, access Access) (*mem.Page, error) {
	t := s.slot(addr, access)
	if s.hit(t, addr, access) {
		return t.page, nil
	}
	e, an, err := s.fault(addr, access)
	if err != nil {
		return nil, err
	}
	if *s.epoch != retired {
		*t = tlbSlot{vpn: addr >> mem.PageShift, writable: !(e.COW && an.Refs > 1),
			epoch: *s.epoch, entry: e, page: an.Page}
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
	pg, err := s.translate(addr, access)
	if err != nil {
		return nil, 0, s.faultError(addr, access, err)
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

// Probe32 is Read32 for a reader that expects some words to be
// unmapped, such as the kernel reading syscall arguments past the stack
// top: it faults pages in exactly as Read32 does (zero-fill, partner
// sharing, counters and cycle charges) but reports a failure as false
// instead of building an error.
func (s *Space) Probe32(addr uint32) (uint32, bool) {
	var b [4]byte
	for done := 0; done < len(b); {
		a := addr + uint32(done)
		pg, err := s.translate(a, AccessRead)
		if err != nil {
			return 0, false
		}
		done += copy(b[done:], pg.Data[a&(mem.PageSize-1):])
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
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

// FetchExec32 reads a little-endian word with execute permission, the
// CPU's immediate-operand fetch. A word inside one page takes one
// translation; a word crossing a page is fetched a byte at a time, so a
// fault names the first byte that fails.
func (s *Space) FetchExec32(addr uint32) (uint32, error) {
	if addr&(mem.PageSize-1) <= mem.PageSize-4 {
		pg, off, err := s.resolve(addr, AccessExec)
		if err != nil {
			return 0, err
		}
		b := pg.Data[off : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := s.FetchExec(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
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
	s.bump()
	child := &Space{phys: s.phys, clk: s.clk, spares: s.spares, costs: s.costs, epoch: s.epoch}
	child.entries = child.entryBuf[:0]
	child.HeapStart, child.HeapEnd = s.HeapStart, s.HeapEnd
	for _, e := range s.entries {
		if e.Shared {
			if s.Partner != nil && e.Start >= s.ShareStart && e.End <= s.ShareEnd {
				ce := s.spares.entry(Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
					amap: s.spares.amap()})
				for _, p := range e.amap.pages {
					pg, err := s.alloc()
					if err != nil {
						panic("vm: fork: " + err.Error())
					}
					pg.Data = p.an.Page.Data
					ce.amap.pages = append(ce.amap.pages, anonRef{p.idx, s.spares.anon(pg)})
					s.charge(s.Costs().PageCopy)
				}
				child.entries = append(child.entries, ce)
				continue
			}
			child.entries = append(child.entries, child.alias(e))
			continue
		}
		e.COW = true
		ce := s.spares.entry(Entry{Start: e.Start, End: e.End, Prot: e.Prot, Name: e.Name,
			COW: true, amap: s.spares.amap()})
		for _, p := range e.amap.pages {
			p.an.Refs++
		}
		ce.amap.pages = append(ce.amap.pages, e.amap.pages...)
		child.entries = append(child.entries, ce)
	}
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
	map1.join(map2)
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
		alias := map1.alias(e)
		if err := map1.insert(alias); err != nil {
			e.amap.refs--
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
			if pe := s.Partner.find(s.HeapStart); pe != nil && pe.amap == heap.amap {
				pe.End = newEnd
			}
			s.Partner.HeapEnd = newEnd
		}
	case newEnd < heap.End:
		// Shrink: drop pages past the new break (from every alias of a
		// shared heap at once, since they share the amap).
		s.bump()
		i, _ := heap.amap.lookup((newEnd - heap.Start) >> mem.PageShift)
		for _, p := range heap.amap.pages[i:] {
			s.dropAnon(p.an)
		}
		clear(heap.amap.pages[i:])
		heap.amap.pages = heap.amap.pages[:i]
		heap.End = newEnd
		if shared {
			if pe := s.Partner.find(s.HeapStart); pe != nil && pe.amap == heap.amap {
				pe.End = newEnd
			}
			s.Partner.HeapEnd = newEnd
		}
	}
	s.HeapEnd = newEnd
	return nil
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
	if an := e.Anon(e.pageIndex(addr)); an != nil {
		return an.Page
	}
	return nil
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
