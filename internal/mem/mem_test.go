package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	p := NewPhys(0)
	pg, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pg.Data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestFramesDistinct(t *testing.T) {
	p := NewPhys(0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if a.Frame == b.Frame {
		t.Fatalf("two allocations share frame %d", a.Frame)
	}
}

func TestLimitEnforced(t *testing.T) {
	p := NewPhys(3 * PageSize)
	var pages []*Page
	for i := 0; i < 3; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		pages = append(pages, pg)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("4th alloc succeeded past a 3-frame limit")
	}
	p.Free(pages[0])
	if _, err := p.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestInUseAccounting(t *testing.T) {
	p := NewPhys(0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if got := p.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2", got)
	}
	p.Free(a)
	p.Free(b)
	p.Free(nil) // must be a no-op
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
	if got := p.Allocated(); got != 2 {
		t.Fatalf("Allocated = %d, want 2", got)
	}
}

// TestFreedFrameReused: Alloc hands out the most recently freed frame
// again, keeping its frame number, with its contents zeroed.
func TestFreedFrameReused(t *testing.T) {
	p := NewPhys(0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	a.Data[0], a.Data[PageSize-1] = 0xAA, 0xBB
	b.Data[7] = 0xCC
	p.Free(a)
	p.Free(b)
	for _, want := range []*Page{b, a} {
		frame := want.Frame
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if pg != want || pg.Frame != frame {
			t.Fatalf("Alloc = frame %d, want the last freed frame %d", pg.Frame, frame)
		}
		for i, v := range pg.Data {
			if v != 0 {
				t.Fatalf("reused frame %d: byte %d = %#x, want 0", frame, i, v)
			}
		}
	}
	if c, _ := p.Alloc(); c.Frame != 3 {
		t.Fatalf("Alloc with no free frame = frame %d, want a new frame 3", c.Frame)
	}
}

// TestReuseAccounting: with frames reused, InUse still counts
// outstanding frames, Allocated still counts Alloc calls, and the limit
// still bounds InUse.
func TestReuseAccounting(t *testing.T) {
	p := NewPhys(2 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if _, err := p.Alloc(); err == nil {
		t.Fatal("3rd alloc succeeded past a 2-frame limit")
	}
	p.Free(a)
	if got := p.InUse(); got != 1 {
		t.Fatalf("InUse = %d, want 1", got)
	}
	c, err := p.Alloc()
	if err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("alloc succeeded past the limit with the free list empty")
	}
	if got, want := p.InUse(), uint64(2); got != want {
		t.Fatalf("InUse = %d, want %d", got, want)
	}
	if got := p.Allocated(); got != 3 {
		t.Fatalf("Allocated = %d, want 3 (reused frames count)", got)
	}
	p.Free(b)
	p.Free(c)
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestLiveFramesDistinct: under random allocation and freeing, the
// frames live at one time are distinct pages with distinct numbers,
// and the allocator makes no more pages than the peak in use.
func TestLiveFramesDistinct(t *testing.T) {
	p := NewPhys(0)
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]*Page{}
	var peak int
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			for f, pg := range live {
				p.Free(pg)
				delete(live, f)
				break
			}
			continue
		}
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if other, ok := live[pg.Frame]; ok {
			t.Fatalf("frame %d handed out while live (same page: %v)", pg.Frame, other == pg)
		}
		pg.Data[0] = 1
		live[pg.Frame] = pg
		peak = max(peak, len(live))
	}
	if got := p.InUse(); got != uint64(len(live)) {
		t.Fatalf("InUse = %d, want %d live frames", got, len(live))
	}
	if p.next != uint64(peak) {
		t.Fatalf("%d pages made for a peak of %d in use", p.next, peak)
	}
}

// TestDoubleFreePanics: freeing a frame that is already free panics
// rather than giving the frame to two owners later.
func TestDoubleFreePanics(t *testing.T) {
	p := NewPhys(0)
	p.Alloc()
	pg, _ := p.Alloc()
	p.Free(pg)
	defer func() {
		want := fmt.Sprintf("mem: frame %d freed twice", pg.Frame)
		if r := recover(); r != want {
			t.Fatalf("second Free: recovered %v, want panic %q", r, want)
		}
	}()
	p.Free(pg)
}

func TestPageAlign(t *testing.T) {
	cases := []struct {
		in, down, up uint32
	}{
		{0, 0, 0},
		{1, 0, PageSize},
		{PageSize - 1, 0, PageSize},
		{PageSize, PageSize, PageSize},
		{PageSize + 1, PageSize, 2 * PageSize},
		{0xFFFFF000, 0xFFFFF000, 0xFFFFF000},
	}
	for _, c := range cases {
		if got := PageAlign(c.in); got != c.down {
			t.Errorf("PageAlign(%#x) = %#x, want %#x", c.in, got, c.down)
		}
		if got := PageRoundUp(c.in); got != c.up {
			t.Errorf("PageRoundUp(%#x) = %#x, want %#x", c.in, got, c.up)
		}
	}
}

func TestPropertyAlignInvariants(t *testing.T) {
	prop := func(addr uint32) bool {
		// Avoid overflow of PageRoundUp near the top of the space.
		if addr > 0xFFFFE000 {
			addr = 0xFFFFE000
		}
		d, u := PageAlign(addr), PageRoundUp(addr)
		return d%PageSize == 0 && u%PageSize == 0 && d <= addr && u >= addr && u-d < 2*PageSize
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
