package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start and end relative to the
// tracer's epoch, the span that caused it (0 for a root) and the operation
// it belongs to. IDs start at 1.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (tr *tracer) begin(name string, parent, op int64) int64 {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: int64(len(tr.spans) + 1), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return int64(len(tr.spans))
}

// end closes the span begin returned.
func (tr *tracer) end(id int64) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// record adds a span measured elsewhere, such as the rescheduling part of
// a stream step, which the stream reports as a duration ending with the
// step.
func (tr *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: int64(len(tr.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(tr.t0), End: end.Sub(tr.t0)})
	return int64(len(tr.spans))
}

// timed runs f inside a span.
func (tr *tracer) timed(name string, parent, op int64, f func()) {
	id := tr.begin(name, parent, op)
	f()
	tr.end(id)
}

func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// durations returns the seconds of every closed span with the given name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.snapshot() {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, for every closed span with the given name, its
// duration minus the part of its interval its child spans cover.
func (tr *tracer) selfTimes(name string) []float64 {
	spans := tr.snapshot()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, (s.dur() - covered(s, children[s.ID])).Seconds())
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent, so overlapping children are not subtracted twice.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
