package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded by a traced
// run. Top-level spans (Parent -1) are the end-to-end phases the
// benchmark reports — a bulk ingest, a query round, a refresh round —
// and their children are the library calls made inside them.
type span struct {
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"` // since the tracer's epoch
	End      int64              `json:"end_ns"`
	Parent   int                `json:"parent"`
	Round    int                `json:"round"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured runs pay one nil
// check per call.
type tracer struct {
	epoch time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRound tags the spans that follow with a round id.
func (t *tracer) setRound(r int) {
	if t != nil {
		t.round = r
	}
}

// begin opens a span under parent (-1 for a phase) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Round: t.round})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// count attaches counter readings taken at span id's boundary.
func (t *tracer) count(id int, name string, v float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Counters == nil {
		s.Counters = map[string]float64{}
	}
	s.Counters[name] = v
}

// call times f as a child of parent.
func (t *tracer) call(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// attribution is the sum check over every phase: the phases' total time
// equals the time of the layer calls inside them plus the unattributed
// remainder (the benchmark's own loop and slicing between calls).
type attribution struct {
	phaseNs, childNs int64
}

func (a attribution) unattributedNs() int64 { return a.phaseNs - a.childNs }

// attribute runs the sum check. Children must lie inside their phase and
// must not overlap one another (the calls are sequential), so the
// remainder can never be negative; an error reports the first span that
// breaks this.
func (t *tracer) attribute() (attribution, error) {
	var a attribution
	lastEnd := make(map[int]int64)
	for i, s := range t.spans {
		if s.End < s.Start {
			return a, fmt.Errorf("trace: span %d (%s) never closed", i, s.Name)
		}
		if s.Parent < 0 {
			a.phaseNs += s.End - s.Start
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Start < lastEnd[s.Parent] {
			return a, fmt.Errorf("trace: span %d (%s) escapes or overlaps within phase %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		lastEnd[s.Parent] = s.End
		a.childNs += s.End - s.Start
	}
	return a, nil
}

// childMs sums the durations, in milliseconds, of phase's children
// with the given name.
func (t *tracer) childMs(phase int, name string) float64 {
	var ns int64
	for _, s := range t.spans[phase+1:] {
		if s.Parent == phase && s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// write stores every span, with run metadata, as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
