package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call the harness made into a
// layer. Spans of one operation share Op. A replay span is the call the
// parent layer made into the next layer down, re-issued by the harness
// after the parent returned (the harness is outside the program and
// cannot see inside a call), so it lies outside its parent's interval
// and counts against the parent's self time by its duration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: begin and end are one branch each.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, op int, replay bool) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now, Replay: replay})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// spanCtx is where an operation hangs the spans of its layer calls.
type spanCtx struct {
	rec    *recorder
	parent int
	op     int
}

func (c spanCtx) begin(name string) int { return c.rec.begin(name, c.parent, c.op, false) }
func (c spanCtx) end(id int)            { c.rec.end(id) }

// replay runs fn inside a replay span below parent.
func (r *recorder) replay(name string, parent, op int, fn func(id int)) {
	id := r.begin(name, parent, op, true)
	fn(id)
	r.end(id)
}

// pick returns up to k spans called name, evenly spaced over the run, so
// replays hang below operations from the whole window and not only its
// first moments.
func (r *recorder) pick(name string, k int) []span {
	var all []span
	for _, s := range r.spans {
		if s.Name == name {
			all = append(all, s)
		}
	}
	if len(all) <= k {
		return all
	}
	out := make([]span, k)
	for i := range out {
		out[i] = all[i*len(all)/k]
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that nested children cover (overlapping children
// are counted once) minus the durations of its replay children. Never
// negative: a replay that ran slower than the original call clamps at 0.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		var nested []span
		for _, k := range kids[s.ID] {
			if k.Replay {
				covered += k.dur()
			} else {
				nested = append(nested, k)
			}
		}
		sort.Slice(nested, func(a, b int) bool { return nested[a].Start < nested[b].Start })
		edge := s.Start
		for _, k := range nested {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// spanIndex answers the questions the per-layer metrics ask of a span
// set: durations by name, and children of a span by name.
type spanIndex struct {
	spans []span
	self  []int64
	kids  map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, self: selfTimes(spans), kids: make(map[int][]int)}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s.ID)
		}
	}
	return ix
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// durMS lists the durations in ms of every span called name.
func (ix *spanIndex) durMS(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, nsToMS(s.dur()))
		}
	}
	return out
}

// childSumMS sums, for one parent, the durations of its children called
// name (every child when name is empty).
func (ix *spanIndex) childSumMS(parent int, name string) float64 {
	var ns int64
	for _, k := range ix.kids[parent] {
		if name == "" || ix.spans[k].Name == name {
			ns += ix.spans[k].dur()
		}
	}
	return nsToMS(ns)
}

// grandchildSumMS sums the durations of the children called name of
// every child of parent.
func (ix *spanIndex) grandchildSumMS(parent int, name string) float64 {
	var ms float64
	for _, k := range ix.kids[parent] {
		ms += ix.childSumMS(k, name)
	}
	return ms
}

// selfMS is one span's self time in ms.
func (ix *spanIndex) selfMS(id int) float64 { return nsToMS(ix.self[id]) }

// writeSpans writes the span set as one JSON file.
func writeSpans(path string, env map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Env   map[string]any `json:"env"`
		Spans []span         `json:"spans"`
	}{env, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
