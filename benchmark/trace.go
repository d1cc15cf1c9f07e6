package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own files. Parent is the index of the span that caused it (-1
// for a root); spans of one scheduled op share OpID, the op's index in the
// schedule.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory and writes them out when the run ends. The
// replays are single-goroutine closed loops, so a stack gives the parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, OpID: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do times fn as one span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// durations lists, in milliseconds, the spans called name whose op passes
// keep (nil keeps all).
func (t *tracer) durations(name string, keep func(opID int) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.OpID)) {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMs is each span's own time: its duration minus the part its children
// cover, summed by name.
func (t *tracer) selfMs() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += s.ms() - child[i]
	}
	return self
}

// spanCostNS measures what recording one span costs, so the tracing overhead
// of a replay is its span count times this — two runs of the same replay
// differ by more than the overhead itself, so it is computed, not subtracted.
func spanCostNS() float64 {
	const n = 200000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// write dumps the spans as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	meta["spans"] = t.spans
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
