package clock

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueAdvance(t *testing.T) {
	var c Clock
	c.Advance(100)
	if got := c.Cycles(); got != 100 {
		t.Fatalf("Cycles() = %d, want 100", got)
	}
}

func TestNewStartsAtZero(t *testing.T) {
	c := New()
	if c.Cycles() != 0 {
		t.Fatalf("new clock at %d cycles, want 0", c.Cycles())
	}
	if c.Ticks() != 0 {
		t.Fatalf("new clock has %d ticks, want 0", c.Ticks())
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(10)
	c.Advance(20)
	c.Advance(30)
	if got := c.Cycles(); got != 60 {
		t.Fatalf("Cycles() = %d, want 60", got)
	}
}

func TestTickFiresAtBoundary(t *testing.T) {
	c := New()
	fired := 0
	c.OnTick(func() { fired++ })
	c.Advance(CyclesPerTick - 1)
	if fired != 0 {
		t.Fatalf("tick fired %d times before boundary", fired)
	}
	c.Advance(1)
	if fired != 1 {
		t.Fatalf("tick fired %d times at boundary, want 1", fired)
	}
	if c.Ticks() != 1 {
		t.Fatalf("Ticks() = %d, want 1", c.Ticks())
	}
}

// TestUntilTick: a charge fires the next tick exactly when it reaches
// UntilTick(). The zero-value clock's first tick is due at cycle zero.
func TestUntilTick(t *testing.T) {
	var zero Clock
	if got := zero.UntilTick(); got != 0 {
		t.Fatalf("zero clock UntilTick() = %d, want 0", got)
	}
	c := New()
	c.OnTick(func() { c.Advance(7) })
	if got := c.UntilTick(); got != CyclesPerTick {
		t.Fatalf("new clock UntilTick() = %d, want %d", got, CyclesPerTick)
	}
	for _, n := range []uint64{1, 1000, 5, 12} {
		for c.UntilTick() > n {
			before := c.Ticks()
			c.Advance(c.UntilTick() - n)
			if c.Ticks() != before {
				t.Fatalf("a charge short of UntilTick() fired a tick")
			}
		}
		before, until := c.Ticks(), c.UntilTick()
		c.Advance(until)
		if c.Ticks() != before+1 || c.UntilTick() != CyclesPerTick-7 {
			t.Fatalf("charging UntilTick() = %d: ticks %d -> %d, then UntilTick() = %d",
				until, before, c.Ticks(), c.UntilTick())
		}
	}
}

func TestMultipleTicksInOneAdvance(t *testing.T) {
	c := New()
	fired := 0
	c.OnTick(func() { fired++ })
	c.Advance(3*CyclesPerTick + 5)
	if fired != 3 {
		t.Fatalf("tick fired %d times, want 3", fired)
	}
}

func TestTicksCountedWithoutHandler(t *testing.T) {
	c := New()
	c.Advance(2 * CyclesPerTick)
	if c.Ticks() != 2 {
		t.Fatalf("Ticks() = %d, want 2", c.Ticks())
	}
	// Installing a handler later must not replay old ticks.
	fired := 0
	c.OnTick(func() { fired++ })
	c.Advance(1)
	if fired != 0 {
		t.Fatalf("handler replayed %d old ticks", fired)
	}
}

func TestRecursiveTickHandlerCharges(t *testing.T) {
	c := New()
	fired := 0
	c.OnTick(func() {
		fired++
		// A realistic handler charges its own service cost; this must
		// not re-trigger the same boundary or loop forever.
		c.Advance(CostTickHandler)
	})
	c.Advance(CyclesPerTick)
	if fired != 1 {
		t.Fatalf("tick fired %d times, want 1", fired)
	}
	want := uint64(CyclesPerTick + CostTickHandler)
	if c.Cycles() != want {
		t.Fatalf("Cycles() = %d, want %d", c.Cycles(), want)
	}
}

func TestRecursiveHandlerCrossingNextBoundary(t *testing.T) {
	c := New()
	fired := 0
	c.OnTick(func() {
		fired++
		if fired == 1 {
			// First handler invocation burns a whole further tick
			// interval; the nested boundary must fire exactly once.
			c.Advance(CyclesPerTick)
		}
	})
	c.Advance(CyclesPerTick)
	if fired != 2 {
		t.Fatalf("tick fired %d times, want 2", fired)
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(599); got != 1.0 {
		t.Fatalf("Micros(599) = %v, want 1.0", got)
	}
	if got := Micros(0); got != 0 {
		t.Fatalf("Micros(0) = %v, want 0", got)
	}
	// The paper's getpid: 0.658 us = ~394 cycles.
	us := Micros(394)
	if us < 0.65 || us > 0.67 {
		t.Fatalf("Micros(394) = %v, want ~0.658", us)
	}
}

func TestMachineInfoMentionsFigure7Facts(t *testing.T) {
	info := MachineInfo()
	for _, want := range []string{"599 MHz", "Pentium III", "CLOCK_TICK_PER_SECOND is 100"} {
		if !strings.Contains(info, want) {
			t.Errorf("MachineInfo missing %q", want)
		}
	}
}

func TestPropertyAdvanceMonotonic(t *testing.T) {
	c := New()
	prop := func(steps []uint16) bool {
		prev := c.Cycles()
		var sum uint64
		for _, s := range steps {
			c.Advance(uint64(s))
			sum += uint64(s)
			if c.Cycles() < prev {
				return false
			}
			prev = c.Cycles()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTickCountMatchesCycles(t *testing.T) {
	prop := func(steps []uint32) bool {
		c := New()
		var total uint64
		for _, s := range steps {
			n := uint64(s) % (2 * CyclesPerTick)
			c.Advance(n)
			total += n
		}
		return c.Ticks() == total/CyclesPerTick
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRateConversions(t *testing.T) {
	if got := CyclesForSeconds(1); got != CyclesPerSecond {
		t.Errorf("CyclesForSeconds(1) = %d, want %d", got, uint64(CyclesPerSecond))
	}
	if got := CyclesForSeconds(0); got != 0 {
		t.Errorf("CyclesForSeconds(0) = %d, want 0", got)
	}
	if got := CyclesForSeconds(-1); got != 0 {
		t.Errorf("CyclesForSeconds(-1) = %d, want 0", got)
	}
	// 100 events/sec -> 10ms gap -> 5,990,000 cycles.
	if got := IntervalCycles(100); got != 5_990_000 {
		t.Errorf("IntervalCycles(100) = %d, want 5990000", got)
	}
	if got := IntervalCycles(0); got != 0 {
		t.Errorf("IntervalCycles(0) = %d, want 0", got)
	}
	// Round-trip consistency with Seconds.
	if got := Seconds(CyclesForSeconds(2.5)); got != 2.5 {
		t.Errorf("Seconds(CyclesForSeconds(2.5)) = %v, want 2.5", got)
	}
}
