package main

import (
	"sync"
	"time"

	"pimsim/internal/cpu"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the Unix
// epoch; Parent is 0 for a root span.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how untraced samples run: the calls stay the same, only the
// bookkeeping is skipped.
type tracer struct {
	trace string
	mu    sync.Mutex // Progress callbacks arrive from harness workers
	spans []span
}

func newTracer(trace string) *tracer { return &tracer{trace: trace} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns its host time in seconds,
// which is measured whether or not the tracer records spans.
func (t *tracer) call(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// nextSampleEvery is N in the 1-in-N sample of Stream.Next calls that
// countingStream times. Timing every call would cost two clock reads per
// op and distort the run it measures.
const nextSampleEvery = 64

// countingStream wraps a workload's op stream to count every Next and to
// time a fixed 1-in-nextSampleEvery sample of them. The wrapped stream
// sees exactly the same calls in the same order.
type countingStream struct {
	inner   cpu.Stream
	calls   int64
	timed   int64
	timedNs int64
}

func (s *countingStream) Next() (cpu.Op, bool) {
	s.calls++
	if s.calls%nextSampleEvery != 0 {
		return s.inner.Next()
	}
	t0 := time.Now()
	op, ok := s.inner.Next()
	s.timedNs += time.Since(t0).Nanoseconds()
	s.timed++
	return op, ok
}

// wrapStreams wraps every non-nil stream in a countingStream.
func wrapStreams(streams []cpu.Stream) ([]cpu.Stream, []*countingStream) {
	out := make([]cpu.Stream, len(streams))
	var counters []*countingStream
	for i, s := range streams {
		if s == nil {
			continue
		}
		c := &countingStream{inner: s}
		out[i] = c
		counters = append(counters, c)
	}
	return out, counters
}
