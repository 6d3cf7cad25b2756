package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer: the layer's name,
// when the call started and ended (nanoseconds since the tracer was
// made), the span that caused it (-1 for a round's root span) and the
// round it belongs to. Spans are recorded from the benchmark's own files
// only; the daemons are not instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  uint32 `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs execute the same driver code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, round uint32) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: round})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlaps once.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	at := lo
	for _, iv := range intervals {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return self
}
