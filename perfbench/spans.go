package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function. Spans of one replay share its ID; Parent
// is the index of the enclosing span, -1 at the top.
type span struct {
	Name    string  `json:"name"`
	Replay  int     `json:"replay"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer collects spans and per-layer numbers of traced replays. A nil
// *tracer is the untraced path: every method is a no-op, so untraced
// replays pay one nil check per span and no clock reads.
type tracer struct {
	origin time.Time
	replay int
	spans  []span
	open   []int // stack of open span indices

	// layer accumulates per-layer numbers of the current replay;
	// selfs the self time (duration minus child spans) per span name.
	layer map[string]float64
	selfs map[string]time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginReplay starts a new replay: a fresh layer map and a top-level
// span named after the workload.
func (t *tracer) beginReplay(name string) func() {
	if t == nil {
		return func() {}
	}
	t.replay++
	t.layer = map[string]float64{}
	t.selfs = map[string]time.Duration{}
	return t.span(name)
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Name: name, Replay: t.replay, Parent: parent, StartMs: t.ms(start)})
	t.open = append(t.open, idx)
	return func() {
		end := time.Now()
		t.spans[idx].EndMs = t.ms(end)
		t.open = t.open[:len(t.open)-1]
		self := end.Sub(start)
		for i := idx + 1; i < len(t.spans); i++ {
			if t.spans[i].Parent == idx {
				self -= time.Duration((t.spans[i].EndMs - t.spans[i].StartMs) * float64(time.Millisecond))
			}
		}
		t.selfs[name] += self
	}
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.origin)) / float64(time.Millisecond)
}

// add accumulates a per-layer number of the current replay.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.layer[name] += v
	}
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
