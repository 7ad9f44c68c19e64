package metrics

import "time"

// spanFamily is the histogram family every span records into; each
// span path ("cell", "cell/record", "cell/replay") is one labeled
// member holding nanosecond durations.
const spanFamily = "spans_ns"

// Span attributes wall time inside a phase of work. A nested phase's
// path names its parent ("parent/child"), so the suite's per-cell
// breakdown (record → replay → assemble) reads directly out of a
// snapshot as
//
//	spans_ns{cell}          — whole cells
//	spans_ns{cell/record}   — trace recording inside a cell
//	spans_ns{cell/replay}   — analyzer replay inside a cell
//
// A Span is a 3-word value, started with one clock read and ended with
// one clock read plus one histogram observe — cheap enough to wrap
// every cell without moving the suite benchmark. Spans are not
// goroutine-local or context-propagated; a nested phase starts its own
// span under its full path.
type Span struct {
	vec   *HistogramVec
	path  string
	start time.Time
}

// StartSpan opens a top-level span named path.
func (r *Registry) StartSpan(path string) Span {
	return Span{vec: r.HistogramVec(spanFamily), path: path, start: time.Now()}
}

// End records the span's elapsed nanoseconds. End on a zero Span is a
// no-op, so span plumbing can be optional at call sites.
func (s Span) End() {
	if s.vec == nil {
		return
	}
	s.vec.With(s.path).Observe(int64(time.Since(s.start)))
}
