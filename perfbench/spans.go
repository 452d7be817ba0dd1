package main

import (
	"sort"
	"time"
)

// span is one timed interval of a traced pass, recorded by the
// benchmark around a call into the program. Times are nanoseconds since
// the pass's root span started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part children cover
}

// tracer keeps a pass's spans in memory; they are written out once the
// pass ends. Callers serialise their calls (exprun hooks and Progress
// callbacks are serialised by the pool).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(root string) *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = append(t.spans, span{ID: 1, Name: root})
	return t
}

const rootSpan = 1

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// finish closes the root span now and fills in every span's self time.
func (t *tracer) finish() []span {
	t.spans[0].End = time.Since(t.t0).Nanoseconds()
	children := make(map[int][]span)
	for _, s := range t.spans[1:] {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return t.spans
}

// covered is the length of [start, end) that the union of kids covers.
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// durationsMs returns the durations in milliseconds of the spans named name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
