package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the harness recorded around a call into a
// layer. Spans live in memory for the whole run and are written to
// <out>/trace.json at exit; nothing is recorded inside the program under
// test.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // shared by the spans of one operation, -1 for set-up
	Tuples int64  `json:"tuples,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, so the untraced run
// pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and for
// children's parent.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endTuples(id, 0) }

// endTuples closes a span that moved a known number of tuples.
func (t *tracer) endTuples(id int, tuples int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Tuples = tuples
}

// within records a child whose duration is known but whose exact position
// is not — a server-reported wall time inside a client round trip — centred
// in its parent.
func (t *tracer) within(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	d = min(d, time.Duration(p.End-p.Start))
	start := p.Start + (p.End-p.Start-int64(d))/2
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Op: p.Op})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children clipped to the parent, overlaps between
// siblings counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStats folds a trace into per-name lists: durations, self times and
// tuple counts of the spans with each name, in recording order.
type spanStats struct {
	durNS, selfNS map[string][]float64
	tuples        map[string]int64
}

func summarize(spans []span) spanStats {
	st := spanStats{durNS: map[string][]float64{}, selfNS: map[string][]float64{}, tuples: map[string]int64{}}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		st.durNS[s.Name] = append(st.durNS[s.Name], float64(s.End-s.Start))
		st.selfNS[s.Name] = append(st.selfNS[s.Name], float64(self))
		st.tuples[s.Name] += s.Tuples
	}
	return st
}

// writeTrace stores the spans under dir, creating it.
func writeTrace(dir string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return writeFile(dir, "trace.json", data)
}
