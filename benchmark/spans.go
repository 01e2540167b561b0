package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public function. Spans of one program or
// request share Op; Parent is the index of the span that caused this one,
// -1 for a root. Est marks a span whose interval was not observed but
// placed inside its parent from a separate measurement (the lexer inside
// parser.Parse, compile and run inside a served request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder started
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Est    bool   `json:"est,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run switches tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, -1 when tracing is off.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	if r.spans[id].End < 0 { // ending twice keeps the first end
		r.spans[id].End = now
	}
	r.mu.Unlock()
}

// estimate places a child of known duration at the start of its parent,
// or at its end when fromEnd is set, cut to the parent's interval.
func (r *recorder) estimate(name string, parent int, d time.Duration, fromEnd bool) {
	if r == nil || parent < 0 {
		return
	}
	r.mu.Lock()
	p := r.spans[parent]
	ns := min(d.Nanoseconds(), p.End-p.Start)
	s := span{Name: name, Start: p.Start, End: p.Start + ns, Parent: parent, Op: p.Op, Est: true}
	if fromEnd {
		s.Start, s.End = p.End-ns, p.End
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and children are clipped to the parent, so a self time is never
// negative.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}
