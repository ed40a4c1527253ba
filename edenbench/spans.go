package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the call. Parent is the id of the enclosing span (0 for none); Req ties
// the spans of one request or replay iteration together.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; the run writes them out when it ends. A
// disabled tracer records nothing, so the untraced run pays only a branch.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with explicit times.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	return id
}

// selfTimes returns each closed span's self time in nanoseconds: its
// duration minus the part of its interval that its children cover
// (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if curHi < 0 || x[0] > curHi {
			if curHi >= 0 {
				flush()
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// selfByName collects the self times (ms) of every span with each name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		if ns, ok := self[s.ID]; ok {
			out[s.Name] = append(out[s.Name], float64(ns)/1e6)
		}
	}
	return out
}
