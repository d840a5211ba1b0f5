package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
)

// probeWorld is a handle/client pair force-shared over
// [0x400000, 0x7FFF0000), laid out so that reads from the handle reach
// every fault path: private text and an exec-only guard below the share
// range, a shared data segment with one page materialized, a shared
// stack whose top is followed by unmapped share-range addresses, a
// region the client maps after the handshake (partner sharing), and a
// client entry straddling the share-range end.
type probeWorld struct {
	clk            *clock.Clock
	handle, client *Space
}

func newProbeWorld(t *testing.T) *probeWorld {
	t.Helper()
	phys := mem.NewPhys(0)
	clk := clock.New()
	w := &probeWorld{clk: clk, handle: NewSpace(phys, clk), client: NewSpace(phys, clk)}
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
	mapIn(w.handle, 0x1000, mem.PageSize, ProtRX, "text")
	mapIn(w.handle, 0x3000, mem.PageSize, ProtExec, "guard")
	mapIn(w.client, 0x400000, 2*mem.PageSize, ProtRW, "data")
	must(w.client.Write32(0x400010, 0xC0FFEE))
	mapIn(w.client, 0x7FEFE000, 2*mem.PageSize, ProtRW, "stack")
	must(w.client.Write32(0x7FEFFFF8, 0x5157AC))
	must(ForceShareSpaces(w.handle, w.client, 0x400000, 0x7FFF0000))
	mapIn(w.client, 0x01000000, 2*mem.PageSize, ProtRW, "mmap")
	must(w.client.Write32(0x01000004, 0x1234))
	mapIn(w.client, 0x7FFEF000, 2*mem.PageSize, ProtRW, "straddle")
	return w
}

// state renders everything a read may change: fault counters of both
// spaces, the clock, and each entry with its sharing flags and the
// number of materialized pages.
func (w *probeWorld) state() string {
	var b strings.Builder
	for _, s := range []*Space{w.handle, w.client} {
		fmt.Fprintf(&b, "faults=%d zero=%d cow=%d share=%d\n",
			s.Faults, s.ZeroFills, s.COWCopies, s.ShareFaults)
		for _, e := range s.Entries() {
			fmt.Fprintf(&b, "%#x-%#x %s %s shared=%v cow=%v pages=%d last=%v\n",
				e.Start, e.End, e.Prot, e.Name, e.Shared, e.COW, e.Resident(), e.lastAlias())
		}
	}
	fmt.Fprintf(&b, "cycles=%d\n", w.clk.Cycles())
	return b.String()
}

// probeAddrs are the handle-side reads of the equivalence sweep.
var probeAddrs = []struct {
	name string
	addr uint32
}{
	{"mapped private text", 0x1008},
	{"unmapped below share range", 0x2000},
	{"protection violation", 0x3004},
	{"materialized shared data", 0x400010},
	{"zero-fill shared data", 0x401008},
	{"page-crossing shared data", 0x400FFE},
	{"stack word", 0x7FEFFFF8},
	{"stack top word", 0x7FEFFFFC},
	{"past the stack top", 0x7FF00000},
	{"further past the stack top", 0x7FF00014},
	{"page-crossing off the stack top", 0x7FEFFFFE},
	{"partner share alias", 0x01000004},
	{"partner share, zero-fill page", 0x01001000},
	{"page-crossing off the partner entry", 0x01001FFE},
	{"partner entry straddling the share range", 0x7FFEF000},
	{"page-crossing into unmapped text", 0x1FFE},
	{"wrapping page-crossing", 0xFFFFFFFE},
}

// readBoth reads n words from addr, in a with one Read32 per word up to
// the first error and in b with ProbeWords, and fails the test if the
// words, their count or any side effect differ.
func readBoth(t *testing.T, a, b *probeWorld, name string, addr uint32, n int) {
	t.Helper()
	var want []uint32
	var err error
	for i := 0; i < n && err == nil; i++ {
		var v uint32
		if v, err = a.handle.Read32(addr + uint32(4*i)); err == nil {
			want = append(want, v)
		}
	}
	got := make([]uint32, n)
	got = got[:b.handle.ProbeWords(addr, got)]
	if !slices.Equal(got, want) {
		t.Fatalf("%s %#x: ProbeWords = %#x; Read32 = %#x, then %v", name, addr, got, want, err)
	}
	if sa, sb := a.state(), b.state(); sa != sb {
		t.Fatalf("%s %#x: side effects differ\nRead32:\n%sProbeWords:\n%s", name, addr, sa, sb)
	}
}

// TestProbeWordsMatchesRead32 pins a one-word ProbeWords to Read32: the
// same value and success, and the same zero-fills, partner aliases,
// counters and cycle charges, over every fault path, touched twice so
// resident pages are covered too.
func TestProbeWordsMatchesRead32(t *testing.T) {
	a, b := newProbeWorld(t), newProbeWorld(t)
	if a.state() != b.state() {
		t.Fatal("worlds differ before the sweep")
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range probeAddrs {
			readBoth(t, a, b, c.name, c.addr, 1)
		}
	}
	if a.handle.ShareFaults == 0 || a.handle.ZeroFills == 0 {
		t.Fatalf("sweep missed a path: share=%d zero=%d", a.handle.ShareFaults, a.handle.ZeroFills)
	}
}

// TestProbeWordsRuns pins ProbeWords over several words, which it
// translates once per page, to one Read32 per word up to the first
// error. Each run starts in fresh worlds, so its first word takes the
// fault, and is read twice.
func TestProbeWordsRuns(t *testing.T) {
	for _, c := range []struct {
		name string
		addr uint32
		want int // words read
	}{
		{"six words inside one page", 0x400010, 6},
		{"a start at the last word of a page", 0x400FFC, 6},
		{"a word straddling two pages", 0x400FF6, 6},
		{"a run into an unmapped page", 0x7FEFFFF4, 3},
		{"a first word that aliases a partner entry", 0x01000FF4, 6},
	} {
		a, b := newProbeWorld(t), newProbeWorld(t)
		for pass := 0; pass < 2; pass++ {
			readBoth(t, a, b, c.name, c.addr, 6)
		}
		got := make([]uint32, 6)
		if n := b.handle.ProbeWords(c.addr, got); n != c.want {
			t.Fatalf("%s: ProbeWords read %d words, want %d", c.name, n, c.want)
		}
	}
}

// TestProbeWordsMatchesRead32Random repeats the comparison on fresh
// worlds for random runs of one to eight words near every boundary of
// the layout.
func TestProbeWordsMatchesRead32Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		a, b := newProbeWorld(t), newProbeWorld(t)
		for i := 0; i < 100; i++ {
			c := probeAddrs[rng.Intn(len(probeAddrs))]
			addr := c.addr&^(mem.PageSize-1) + uint32(rng.Intn(int(mem.PageSize)+16)) - 8
			readBoth(t, a, b, c.name, addr, 1+rng.Intn(8))
		}
	}
}

// TestProbeWordsAllocs: an expected fault costs no allocation.
func TestProbeWordsAllocs(t *testing.T) {
	w := newProbeWorld(t)
	var args [6]uint32
	if n := testing.AllocsPerRun(100, func() {
		w.handle.ProbeWords(0x7FEFFFF4, args[:])
		w.handle.ProbeWords(0x7FF00000, args[:])
		w.handle.ProbeWords(0x3004, args[:])
	}); n != 0 {
		t.Fatalf("ProbeWords allocs = %v, want 0", n)
	}
}

// TestFaultErrorText: real faults keep their detailed diagnostics, and
// still match the sentinels.
func TestFaultErrorText(t *testing.T) {
	w := newProbeWorld(t)
	for _, c := range []struct {
		addr   uint32
		access Access
		is     error
		text   string
	}{
		{0x2000, AccessRead, ErrNoMapping, "vm: no mapping: addr 0x2000 (read)"},
		{0x7FF00004, AccessWrite, ErrNoMapping, "vm: no mapping: addr 0x7ff00004 (write)"},
		{0x3004, AccessRead, ErrProtection, "vm: protection violation: read access to guard page 0x3004 (prot --x)"},
		{0x1008, AccessWrite, ErrProtection, "vm: protection violation: write access to text page 0x1008 (prot r-x)"},
		{0x400010, AccessExec, ErrProtection, "vm: protection violation: exec access to data page 0x400010 (prot rw-)"},
		{0x7FFEF000, AccessRead, ErrNoMapping,
			"vm: no mapping: partner entry straddle [0x7ffef000,0x7fff1000) exceeds share range"},
	} {
		_, err := w.handle.Fault(c.addr, c.access)
		if !errors.Is(err, c.is) {
			t.Fatalf("Fault(%#x, %s) = %v, want %v", c.addr, accessName(c.access), err, c.is)
		}
		if err.Error() != c.text {
			t.Fatalf("Fault(%#x, %s) text = %q, want %q", c.addr, accessName(c.access), err, c.text)
		}
	}
	// A protection fault on a page the partner shares in reports the
	// alias the fault created.
	if _, err := w.handle.Fault(0x01000000, AccessExec); err == nil ||
		err.Error() != "vm: protection violation: exec access to mmap page 0x1000000 (prot rw-)" {
		t.Fatalf("partner alias exec fault = %v", err)
	}
}
