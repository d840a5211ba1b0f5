package vm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace(mem.NewPhys(0), clock.New())
}

func TestMapAndRW(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x2000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write32(0x1234, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read32(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", v)
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1001, 0x1000, ProtRW, "x"); err == nil {
		t.Fatal("unaligned start accepted")
	}
	if _, err := s.Map(0x1000, 0x123, ProtRW, "x"); err == nil {
		t.Fatal("unaligned size accepted")
	}
	if _, err := s.Map(0x1000, 0, ProtRW, "x"); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x3000, ProtRW, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x2000, 0x1000, ProtRW, "b"); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap not detected: %v", err)
	}
}

func TestUnmappedFaults(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Read32(0x5000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("got %v, want ErrNoMapping", err)
	}
}

func TestProtectionEnforced(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x1000, ProtRead, "ro"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write8(0x1000, 1); !errors.Is(err, ErrProtection) {
		t.Fatalf("write to read-only: %v", err)
	}
	if _, err := s.FetchExec(0x1000); !errors.Is(err, ErrProtection) {
		t.Fatalf("exec of non-exec page: %v", err)
	}
	if _, err := s.Map(0x3000, 0x1000, ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchExec(0x3000); err != nil {
		t.Fatalf("exec of text: %v", err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x2000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	// Word straddling the page boundary at 0x2000.
	if err := s.Write32(0x1FFE, 0x11223344); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read32(0x1FFE)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11223344 {
		t.Fatalf("cross-page Read32 = %#x", v)
	}
	buf := make([]byte, 3*mem.PageSize/2)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := s.WriteBytes(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(0x1000, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], buf[i])
		}
	}
}

func TestZeroFillChargesOnce(t *testing.T) {
	clk := clock.New()
	s := NewSpace(mem.NewPhys(0), clk)
	if _, err := s.Map(0x1000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write8(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	after1 := clk.Cycles()
	if after1 == 0 {
		t.Fatal("first touch charged nothing")
	}
	if err := s.Write8(0x1001, 2); err != nil {
		t.Fatal(err)
	}
	if clk.Cycles() != after1 {
		t.Fatal("second touch of resident page charged cycles")
	}
	if s.ZeroFills != 1 {
		t.Fatalf("ZeroFills = %d, want 1", s.ZeroFills)
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write32(0x1000, 111); err != nil {
		t.Fatal(err)
	}
	c := s.Fork()
	// Before any write the page is physically shared.
	if !SharesPageWith(s, c, 0x1000) {
		t.Fatal("fork did not share resident page")
	}
	// Child write breaks COW; parent value unchanged.
	if err := c.Write32(0x1000, 222); err != nil {
		t.Fatal(err)
	}
	pv, _ := s.Read32(0x1000)
	cv, _ := c.Read32(0x1000)
	if pv != 111 || cv != 222 {
		t.Fatalf("parent=%d child=%d, want 111/222", pv, cv)
	}
	if SharesPageWith(s, c, 0x1000) {
		t.Fatal("page still shared after COW break")
	}
	if c.COWCopies != 1 {
		t.Fatalf("child COWCopies = %d, want 1", c.COWCopies)
	}
}

func TestForkSharedEntryStaysShared(t *testing.T) {
	a := newTestSpace(t)
	b := NewSpace(mem.NewPhys(0), clock.New())
	if _, _, err := MapSharedInternal(a, b, 0x1000, 0x1000, ProtRW, "shm"); err != nil {
		t.Fatal(err)
	}
	c := a.Fork()
	if err := c.Write32(0x1000, 99); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read32(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("shared write not visible through fork: %d", v)
	}
}

// TestForceShare is the core paper mechanism: the handle's range is
// unmapped and replaced by the client's entries, after which writes by
// either side are visible to the other.
func TestForceShare(t *testing.T) {
	phys := mem.NewPhys(0)
	clk := clock.New()
	client := NewSpace(phys, clk)
	handle := NewSpace(phys, clk)

	if _, err := client.Map(0x00400000, 0x4000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(0x00400000, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	// The handle has its own private junk in the range, which must vanish.
	if _, err := handle.Map(0x00400000, 0x1000, ProtRW, "junk"); err != nil {
		t.Fatal(err)
	}
	if err := handle.Write32(0x00400000, 0xBBBB); err != nil {
		t.Fatal(err)
	}

	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}

	v, err := handle.Read32(0x00400000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAAAA {
		t.Fatalf("handle sees %#x, want client's 0xAAAA", v)
	}
	if err := handle.Write32(0x00400100, 0xCCCC); err != nil {
		t.Fatal(err)
	}
	v, _ = client.Read32(0x00400100)
	if v != 0xCCCC {
		t.Fatalf("client sees %#x, want handle's 0xCCCC", v)
	}
	if !SharesPageWith(client, handle, 0x00400000) {
		t.Fatal("data page not physically shared")
	}
}

// TestForceShareLeavesTextPrivate verifies the Figure 2 property that
// text outside the share range stays private.
func TestForceShareLeavesTextPrivate(t *testing.T) {
	phys := mem.NewPhys(0)
	client := NewSpace(phys, clock.New())
	handle := NewSpace(phys, clock.New())
	if _, err := client.Map(0x1000, 0x1000, ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Map(0x00400000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Map(0xA0000000, 0x1000, ProtRX, "modtext"); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}
	// Client must not be able to touch module text; handle must not see
	// the client's own text.
	if _, err := client.Read32(0xA0000000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("client reads module text: %v", err)
	}
	if _, err := handle.FetchExec(0x1000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("handle executes client text: %v", err)
	}
}

// TestPartnerFaultSharing exercises the modified uvm_fault: memory the
// client maps after the handshake becomes shared when the handle
// touches it.
func TestPartnerFaultSharing(t *testing.T) {
	phys := mem.NewPhys(0)
	clk := clock.New()
	client := NewSpace(phys, clk)
	handle := NewSpace(phys, clk)
	if _, err := client.Map(0x00400000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}
	// Client maps a brand-new region after the handshake.
	if _, err := client.Map(0x01000000, 0x2000, ProtRW, "mmap"); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(0x01000000, 0x1234); err != nil {
		t.Fatal(err)
	}
	// Handle touches it: the modified fault handler must share it.
	v, err := handle.Read32(0x01000000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1234 {
		t.Fatalf("handle read %#x, want 0x1234", v)
	}
	if handle.ShareFaults != 1 {
		t.Fatalf("ShareFaults = %d, want 1", handle.ShareFaults)
	}
	// And the share is bidirectional from then on.
	if err := handle.Write32(0x01000004, 0x5678); err != nil {
		t.Fatal(err)
	}
	v, _ = client.Read32(0x01000004)
	if v != 0x5678 {
		t.Fatalf("client read %#x, want 0x5678", v)
	}
}

// TestPartnerFaultOutsideShareRange: the partner lookup must not leak
// mappings outside [ShareStart,ShareEnd) — the handle's secret region
// and text must stay invisible.
func TestPartnerFaultOutsideShareRange(t *testing.T) {
	phys := mem.NewPhys(0)
	client := NewSpace(phys, clock.New())
	handle := NewSpace(phys, clock.New())
	if _, err := client.Map(0x00400000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}
	// Handle maps a secret region outside the share range.
	if _, err := handle.Map(0x90000000, 0x1000, ProtRW, "secret"); err != nil {
		t.Fatal(err)
	}
	if err := handle.Write32(0x90000000, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read32(0x90000000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("client can read handle secret region: %v", err)
	}
}

// TestObreakSharedGrowth is the modified sys_obreak: heap growth on
// either side of a SecModule pair stays shared.
func TestObreakSharedGrowth(t *testing.T) {
	phys := mem.NewPhys(0)
	clk := clock.New()
	client := NewSpace(phys, clk)
	handle := NewSpace(phys, clk)
	client.HeapStart, client.HeapEnd = 0x00500000, 0x00500000
	if _, err := client.Map(0x00400000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := client.Obreak(0x00502000); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}
	// Grow the heap after the handshake (this is what malloc inside a
	// SecModule does when it needs more memory).
	if err := client.Obreak(0x00508000); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(0x00506000, 42); err != nil {
		t.Fatal(err)
	}
	v, err := handle.Read32(0x00506000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("handle sees %d in grown heap, want 42", v)
	}
	// Growth initiated by the handle (executing sbrk on the client's
	// behalf) must be visible to the client too.
	if err := handle.Obreak(0x0050C000); err != nil {
		t.Fatal(err)
	}
	if err := handle.Write32(0x0050A000, 43); err != nil {
		t.Fatal(err)
	}
	v, err = client.Read32(0x0050A000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 43 {
		t.Fatalf("client sees %d in handle-grown heap, want 43", v)
	}
	if client.HeapEnd != 0x0050C000 || handle.HeapEnd != 0x0050C000 {
		t.Fatalf("heap ends diverged: client %#x handle %#x", client.HeapEnd, handle.HeapEnd)
	}
}

func TestObreakShrink(t *testing.T) {
	s := newTestSpace(t)
	s.HeapStart, s.HeapEnd = 0x00500000, 0x00500000
	if err := s.Obreak(0x00504000); err != nil {
		t.Fatal(err)
	}
	if err := s.Write32(0x00503000, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Obreak(0x00502000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read32(0x00503000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("read past shrunk break: %v", err)
	}
	// Regrow: pages must come back zeroed, not with stale contents.
	if err := s.Obreak(0x00504000); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read32(0x00503000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("regrown heap page not zeroed: %#x", v)
	}
}

func TestObreakBelowStart(t *testing.T) {
	s := newTestSpace(t)
	s.HeapStart, s.HeapEnd = 0x00500000, 0x00500000
	if err := s.Obreak(0x004FF000); err == nil {
		t.Fatal("obreak below heap start accepted")
	}
}

func TestObreakCollision(t *testing.T) {
	s := newTestSpace(t)
	s.HeapStart, s.HeapEnd = 0x00500000, 0x00500000
	if _, err := s.Map(0x00504000, 0x1000, ProtRW, "wall"); err != nil {
		t.Fatal(err)
	}
	if err := s.Obreak(0x00502000); err != nil {
		t.Fatal(err)
	}
	if err := s.Obreak(0x00508000); !errors.Is(err, ErrOverlap) {
		t.Fatalf("heap grew through a wall: %v", err)
	}
}

func TestUnmapSplits(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x4000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for a := uint32(0x1000); a < 0x5000; a += 0x1000 {
		if err := s.Write32(a, a); err != nil {
			t.Fatal(err)
		}
	}
	s.Unmap(0x2000, 0x3000)
	if v, err := s.Read32(0x1000); err != nil || v != 0x1000 {
		t.Fatalf("left remainder: v=%#x err=%v", v, err)
	}
	if _, err := s.Read32(0x2000); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("hole still mapped: %v", err)
	}
	if v, err := s.Read32(0x3000); err != nil || v != 0x3000 {
		t.Fatalf("right remainder: v=%#x err=%v", v, err)
	}
	if v, err := s.Read32(0x4000); err != nil || v != 0x4000 {
		t.Fatalf("right remainder page 2: v=%#x err=%v", v, err)
	}
}

func TestUnmapFreesFrames(t *testing.T) {
	phys := mem.NewPhys(0)
	s := NewSpace(phys, clock.New())
	if _, err := s.Map(0x1000, 0x4000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for a := uint32(0x1000); a < 0x5000; a += 0x1000 {
		if err := s.Write8(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	if phys.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", phys.InUse())
	}
	s.Unmap(0x1000, 0x5000)
	if phys.InUse() != 0 {
		t.Fatalf("InUse after unmap = %d, want 0", phys.InUse())
	}
}

func TestUnmapAllKeepsSharedAlive(t *testing.T) {
	phys := mem.NewPhys(0)
	a := NewSpace(phys, clock.New())
	b := NewSpace(phys, clock.New())
	if _, _, err := MapSharedInternal(a, b, 0x1000, 0x1000, ProtRW, "shm"); err != nil {
		t.Fatal(err)
	}
	if err := a.Write32(0x1000, 5); err != nil {
		t.Fatal(err)
	}
	a.UnmapAll()
	v, err := b.Read32(0x1000)
	if err != nil || v != 5 {
		t.Fatalf("shared page lost after partner teardown: v=%d err=%v", v, err)
	}
}

// TestSharedFramesFreedWithLastAlias: a SecModule pair's shared
// memory — force-shared at the handshake, grown by a shared obreak,
// aliased by a partner fault, split by a partial unmap, aliased again by
// fork — stays alive while any alias maps it and returns every frame
// once the last one goes.
func TestSharedFramesFreedWithLastAlias(t *testing.T) {
	phys := mem.NewPhys(0)
	client := NewSpace(phys, clock.New())
	handle := NewSpace(phys, clock.New())
	write := func(s *Space, addr, v uint32) {
		t.Helper()
		if err := s.Write32(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Map(0x00400000, 0x2000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	write(client, 0x00400000, 1)
	write(client, 0x00401000, 2)
	client.HeapStart, client.HeapEnd = 0x00500000, 0x00500000
	if err := ForceShareSpaces(handle, client, 0x00400000, 0x7FFF0000); err != nil {
		t.Fatal(err)
	}
	if err := client.Obreak(0x00502000); err != nil {
		t.Fatal(err)
	}
	write(client, 0x00501000, 3)
	if _, err := client.Map(0x01000000, 0x1000, ProtRW, "mmap"); err != nil {
		t.Fatal(err)
	}
	write(client, 0x01000000, 4)
	for _, addr := range []uint32{0x00501000, 0x01000000} {
		if _, err := handle.Read32(addr); err != nil { // partner-fault alias
			t.Fatal(err)
		}
	}
	other := NewSpace(phys, clock.New())
	if _, _, err := MapSharedInternal(client, other, 0x90000000, 0x1000, ProtRW, "shm"); err != nil {
		t.Fatal(err)
	}
	write(client, 0x90000000, 5)
	child := client.Fork() // aliases shm, deep-copies the share range
	handle.Unmap(0x00400000, 0x00401000)

	client.UnmapAll()
	for addr, want := range map[uint32]uint32{0x00401000: 2, 0x00501000: 3, 0x01000000: 4} {
		if v, err := handle.Read32(addr); err != nil || v != want {
			t.Fatalf("handle lost %#x after client teardown: v=%d err=%v", addr, v, err)
		}
	}
	handle.UnmapAll()
	other.UnmapAll()
	if v, err := child.Read32(0x90000000); err != nil || v != 5 {
		t.Fatalf("child lost shm after its aliases went: v=%d err=%v", v, err)
	}
	child.UnmapAll()
	if got := phys.InUse(); got != 0 {
		t.Fatalf("InUse after every alias unmapped = %d, want 0", int64(got))
	}
}

func TestDescribeLayout(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x1000, ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x00400000, 0x1000, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	d := s.Describe()
	if !strings.Contains(d, "text") || !strings.Contains(d, "data") {
		t.Fatalf("Describe missing entries:\n%s", d)
	}
	// Highest first, like the paper's Figure 2.
	if strings.Index(d, "data") > strings.Index(d, "text") {
		t.Fatalf("Describe not highest-first:\n%s", d)
	}
}

func TestReadBytesAcrossEntries(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Map(0x1000, 0x1000, ProtRW, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x2000, 0x1000, ProtRW, "b"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0x2000)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := s.WriteBytes(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(0x1000, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}
