package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is
// the index of the enclosing span in the tracer (-1 for a root); spans
// of one request or operation share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere, such as
// the engine time a wcojd response reports inside a round trip.
func (t *tracer) record(name string, parent int, req int64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	t.mu.Unlock()
}

// now is the tracer clock, for spans passed to record.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

// count adds v to a counter kept at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// total is the sum counted under name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the lengths in milliseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval covered by its children, in milliseconds. Children
// may overlap one another (parallel calls); their union counts once.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		covered := union(kids[i], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// union is the length of the union of the intervals clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerSelfTimes folds selfTimes by layer: the span name up to its
// first dot.
func layerSelfTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, ms := range selfTimes(spans) {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += ms
	}
	return out
}

// write stores the spans, counters and per-layer self times as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
		SelfMs map[string]float64 `json:"self_ms"`
	}{t.spans, t.counts, layerSelfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
