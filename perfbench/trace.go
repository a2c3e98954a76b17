package main

import "time"

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation share Op; Parent is the index of the enclosing
// span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns each span's self time: its duration minus the time
// its child spans cover and, for a Discover span, minus the phase time
// the run reported (phased maps an op id to its Discover call's total
// phase time).
// Children of one span never overlap, because the benchmark calls the
// program from one goroutine.
func selfTimes(spans []span, phased map[int]time.Duration) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
		if s.Name == "dhyfd.Discover" {
			self[i] -= phased[s.Op]
		}
	}
	return self
}
