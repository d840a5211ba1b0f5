// Package clock provides the simulated cycle clock for the SecModule
// machine simulator, together with the cost model that every kernel and
// CPU operation charges against.
//
// The simulated machine mirrors the paper's test system (Figure 7): a
// 599 MHz Pentium III running OpenBSD 3.6 with CLOCK_TICK_PER_SECOND =
// 100. One microsecond therefore equals 599 cycles, and a timer
// interrupt fires every 5,990,000 cycles.
//
// All timing results reported by the benchmark harness are derived from
// this clock, never from host wall time, so runs are reproducible while
// still exhibiting trial-to-trial variance: the variance comes from the
// drifting phase of the 100 Hz tick relative to trial boundaries and
// from scheduler interleaving, which is the same variance source as the
// paper's wall-clock measurements.
package clock

import "fmt"

// Frequency constants for the simulated machine.
const (
	// CyclesPerMicrosecond converts cycles to microseconds for the
	// 599 MHz Pentium III in the paper's Figure 7.
	CyclesPerMicrosecond = 599

	// HzTicksPerSecond matches "CLOCK_TICK_PER_SECOND is 100" from the
	// paper's abbreviated dmesg (Figure 7).
	HzTicksPerSecond = 100

	// CyclesPerTick is the interval between timer interrupts.
	CyclesPerTick = 599_000_000 / HzTicksPerSecond

	// CyclesPerSecond is the simulated CPU frequency (599 MHz), the
	// conversion base for open-loop arrival rates expressed in events
	// per simulated second.
	CyclesPerSecond = 599_000_000
)

// Clock counts simulated CPU cycles. The zero value is a clock at cycle
// zero with no tick handler installed.
type Clock struct {
	cycles   uint64
	nextTick uint64
	onTick   func()
	ticks    uint64
}

// New returns a clock whose first timer interrupt fires one full tick
// interval from cycle zero.
func New() *Clock {
	return &Clock{nextTick: CyclesPerTick}
}

// OnTick installs fn as the timer-interrupt handler. The handler runs
// synchronously inside Advance when the clock crosses a tick boundary;
// it typically charges the tick-handling cost and preempts the running
// process.
func (c *Clock) OnTick(fn func()) { c.onTick = fn }

// Advance moves the clock forward by n cycles, firing timer interrupts
// for every tick boundary crossed. Handlers that themselves call
// Advance (to charge interrupt-handling cycles) are supported; the
// recursion terminates because each handler invocation consumes the
// boundary that triggered it.
//
// Every simulated instruction run and every kernel charge ends here, so
// Advance is an add and a compare the compiler inlines at each call
// site (`make inline` checks it); crossing a boundary takes tick.
func (c *Clock) Advance(n uint64) {
	c.cycles += n
	if c.cycles >= c.nextTick {
		c.tick()
	}
}

// tick fires the timer interrupts for the tick boundaries the clock has
// crossed: Advance's slow path.
func (c *Clock) tick() {
	for c.onTick != nil && c.cycles >= c.nextTick {
		c.nextTick += CyclesPerTick
		c.ticks++
		c.onTick()
	}
	if c.onTick == nil {
		for c.cycles >= c.nextTick {
			c.nextTick += CyclesPerTick
			c.ticks++
		}
	}
}

// Cycles returns the current cycle count.
func (c *Clock) Cycles() uint64 { return c.cycles }

// UntilTick returns the number of cycles Advance can charge before the
// next timer interrupt fires: a charge of UntilTick() or more fires it.
func (c *Clock) UntilTick() uint64 {
	if c.cycles >= c.nextTick {
		return 0
	}
	return c.nextTick - c.cycles
}

// Ticks returns the number of timer interrupts fired so far.
func (c *Clock) Ticks() uint64 { return c.ticks }

// Micros converts a cycle count to microseconds on the simulated
// machine.
func Micros(cycles uint64) float64 {
	return float64(cycles) / CyclesPerMicrosecond
}

// Seconds converts a cycle count to seconds on the simulated machine.
func Seconds(cycles uint64) float64 {
	return Micros(cycles) / 1e6
}

// PerSec converts an event count over a cycle span into a simulated
// events-per-second rate (the fleet throughput unit). A zero span
// yields 0 rather than Inf so empty measurements stay printable.
func PerSec(events int, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(events) / Seconds(cycles)
}

// CyclesForSeconds converts a simulated-seconds duration to cycles
// (rounding to nearest), for building arrival schedules on the
// simulated clock.
func CyclesForSeconds(s float64) uint64 {
	if s <= 0 {
		return 0
	}
	return uint64(s*CyclesPerSecond + 0.5)
}

// IntervalCycles returns the mean inter-arrival gap in cycles for an
// offered load of ratePerSec events per simulated second.
func IntervalCycles(ratePerSec float64) uint64 {
	if ratePerSec <= 0 {
		return 0
	}
	return CyclesForSeconds(1 / ratePerSec)
}

// MachineInfo returns the Figure 7 style description of the simulated
// test system, printed by cmd/smodbench before the measurement table.
func MachineInfo() string {
	return fmt.Sprintf(`Simulated test system (after paper Figure 7):
cpu0: Intel Pentium III ("GenuineIntel" 686-class, 512KB L2 cache) 599 MHz (simulated)
real mem = 536440832 (523868K) (simulated)
OS: SecModule machine simulator (OpenBSD 3.6 semantics)
CLOCK_TICK_PER_SECOND is %d
cycle resolution: %d cycles/us`, HzTicksPerSecond, CyclesPerMicrosecond)
}
