package main

import (
	"crypto/sha256"
	"time"
)

// The host's speed drifts by 10-40% over seconds and minutes when other
// virtual machines share its cores, caches and memory bandwidth, and
// repetitions inside one run cannot average a minute-long slow spell
// away. Every repetition is therefore bracketed by a fixed calibration
// loop that shares no code with the program under test, and host times
// are reported at a reference speed: a time measured while the loop ran
// at speed s reads as time*s/refSpeed, a rate as rate*refSpeed/s.
// host.speed_index reports s, so the raw values can be recovered.

// refSpeed is the calibration loop's typical rate, in loops per second,
// on the host the bounds in BENCHMARK.json were set on: a 2-vCPU KVM
// guest on a 2.1 GHz Xeon.
const refSpeed = 50000

// calibrationTime is how long one calibration lasts.
const calibrationTime = 100 * time.Millisecond

// calibration holds the loop's working set between calls, so each call
// runs against a warm, GC-visible heap like the simulator's.
var calibration = struct {
	buf   []byte
	table map[int]int
	pages [][]byte
	list  *calNode
}{buf: make([]byte, 16<<10), table: map[int]int{}, pages: make([][]byte, 256)}

type calNode struct {
	next *calNode
	v    [6]uint64
}

// speedIndex runs the calibration loop for calibrationTime and returns
// its rate in loops per second. One loop hashes a buffer (compute),
// updates a 50k-entry map (cache misses), and allocates a short list
// and a 4 KiB page it keeps for a while (allocation and GC): the kinds
// of work the simulator does per instruction, per page and per call.
func speedIndex() float64 {
	c := &calibration
	n := 0
	t0 := time.Now()
	for time.Since(t0) < calibrationTime {
		sha := sha256.Sum256(c.buf)
		for i := 0; i < 250; i++ {
			c.table[(i*7919+n*31)%50000] += int(sha[i%len(sha)])
		}
		var head *calNode
		for i := 0; i < 25; i++ {
			head = &calNode{next: head}
			head.v[0] = uint64(i)
		}
		if n%64 == 0 {
			c.list = head
		}
		page := make([]byte, 4096)
		page[n%len(page)] = sha[0]
		c.pages[n%len(c.pages)] = page
		n++
	}
	return float64(n) / time.Since(t0).Seconds()
}
