package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records host-time spans around the benchmark's calls into the
// program's layers: workload -> repetition -> layer call. Spans stay in
// memory until the run ends. A nil *tracer records nothing, so the
// untraced path costs one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. A span's layer is its name up to the first
// dot ("fleet.RunSchedule" belongs to fleet). Two spans with the same
// nonzero req are the client and server halves of one RPC; the longer
// one encloses the other.
type span struct {
	name       string
	parent     int // index+1 of the enclosing span, 0 for a root
	tid        int // lane: 0 main, laneClient+c and laneServer+c for connection c
	start, end time.Duration
	req        uint64
}

const (
	laneClient = 1
	laneServer = 101
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span that end closes; it returns the span's id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = time.Since(t.t0)
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent, tid int, start, end time.Time, req uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, tid: tid,
		start: start.Sub(t.t0), end: end.Sub(t.t0), req: req})
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// link resolves each span's enclosing span, including the cross-
// goroutine client -> server link by request id, and returns the parent
// index+1 per span.
func (t *tracer) link() []int {
	parents := make([]int, len(t.spans))
	byReq := map[uint64]int{}
	for i, s := range t.spans {
		parents[i] = s.parent
		if s.req == 0 {
			continue
		}
		j, ok := byReq[s.req]
		if !ok {
			byReq[s.req] = i
			continue
		}
		inner, outer := i, j
		if t.spans[i].end-t.spans[i].start > t.spans[j].end-t.spans[j].start {
			inner, outer = j, i
		}
		parents[inner] = outer + 1
	}
	return parents
}

// selfTime returns each layer's self time: the duration of its spans
// minus the part their child spans cover.
func (t *tracer) selfTime() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := t.link()
	children := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if p := parents[i]; p > 0 {
			children[p-1] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		d := s.end - s.start - children[i]
		if d < 0 {
			d = 0
		}
		self[layerOf(s.name)] += d
	}
	return self
}

// writeChrome writes the spans as a Chrome trace-event document
// (loadable in Perfetto or chrome://tracing): complete events on the
// host-time microsecond scale, one thread per lane, and a flow arrow
// from each RPC's client span to its server span.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeFile(path, t.encodeChrome)
}

// writeFile creates path, creating its directory if need be, and
// writes it through a buffer with encode.
func writeFile(path string, encode func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := encode(w)
	if err := w.Flush(); werr == nil {
		werr = err
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	return werr
}

func (t *tracer) encodeChrome(w io.Writer) error {
	us := func(d time.Duration) string { return strconv.FormatFloat(micros(d), 'f', 3, 64) }
	var events []string
	lanes := map[int]bool{}
	for _, s := range t.spans {
		lanes[s.tid] = true
		args := ""
		if s.req != 0 {
			args = fmt.Sprintf(`,"args":{"req":"%d:%d"}`, s.req>>32, s.req&0xffffffff)
		}
		events = append(events, fmt.Sprintf(`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s%s}`,
			s.name, layerOf(s.name), s.tid, us(s.start), us(s.end-s.start), args))
	}
	parents := t.link()
	for i, s := range t.spans {
		p := parents[i]
		if s.req == 0 || p == 0 || t.spans[p-1].req != s.req {
			continue
		}
		c := t.spans[p-1]
		events = append(events,
			fmt.Sprintf(`{"name":"rpc","cat":"rpc","ph":"s","id":%d,"pid":1,"tid":%d,"ts":%s}`, s.req, c.tid, us(c.start)),
			fmt.Sprintf(`{"name":"rpc","cat":"rpc","ph":"f","bp":"e","id":%d,"pid":1,"tid":%d,"ts":%s}`, s.req, s.tid, us(s.start)))
	}
	ids := make([]int, 0, len(lanes))
	for id := range lanes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	meta := []string{`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"benchmark (host time)"}}`}
	for _, id := range ids {
		name := "main"
		switch {
		case id >= laneServer:
			name = fmt.Sprintf("conn %d server", id-laneServer)
		case id >= laneClient:
			name = fmt.Sprintf("conn %d client", id-laneClient)
		}
		meta = append(meta, fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, id, name))
	}
	_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`+
		strings.Join(append(meta, events...), ",\n")+"]}\n")
	return err
}
