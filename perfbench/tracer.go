package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and returns span id 0, so untraced runs pay one
// branch per call site.
type tracer struct {
	on  bool
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id; id 0 (tracing off) is ignored.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// since returns the finished spans that started no earlier than span
// id: the spans of a round whose root span is id.
func (t *tracer) since(id int) []span {
	if id == 0 {
		return nil
	}
	t.mu.Lock()
	from := t.spans[id-1].Start
	t.mu.Unlock()
	var out []span
	for _, s := range t.closed() {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every finished span as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// totals sums span durations by name, in seconds.
func totals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.dur()) / 1e9
	}
	return out
}

// selfTimes sums, by span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap each
// other (cells running in parallel) and may spill past their parent;
// only the union of their clipped intervals is subtracted.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.dur() - covered(s.Start, s.End, children[s.ID])
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// tailTime returns how long, at the end of [lo, hi], fewer than par of
// the spans were running: the stretch where a worker pool had run out
// of work to hand its idle workers.
func tailTime(lo, hi int64, spans []span, par int) int64 {
	type edge struct {
		t     int64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	lastFull := lo
	running := 0
	for _, e := range edges {
		running += e.delta
		if e.delta < 0 && running == par-1 {
			lastFull = e.t
		}
	}
	return max(0, hi-lastFull)
}
