package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the enclosing span (-1 for a root); Op
// names the operation (sweep point, build, job) the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code without the clock reads.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// total sums the durations of the spans called name, in ms, and counts them.
func (t *tracer) total(name string) (ms float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ms += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	return ms, n
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}
