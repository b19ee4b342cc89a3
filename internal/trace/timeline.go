package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Wave-timeline support for the execution engine (internal/exec). The
// Profile in this package counts simulated occurrences and cycles; a
// Timeline instead records *wall-clock* spans of the host-side dispatch
// machinery — when each wave (and any retry) occupied the host or its
// command queue. Simulated clocks are identical at both dispatch depths
// by construction, so overlap is only ever visible on this wall-clock
// axis: a depth-2 run shows wave w+1's span starting before wave w's
// has ended, a depth-1 run shows strictly sequential spans.

// WaveSpan is one timed phase of an execution-engine wave. The JSON tags
// serve upmem-profile's -json exposition; Start and End marshal as
// nanoseconds (time.Duration's underlying int64).
type WaveSpan struct {
	// Name is the phase: "wave" for one fused scatter→launch→gather
	// wave of an Engine.Run (one command, not separately timeable),
	// "scatter", "launch" and "gather" for a RunStream's discrete
	// phases, "retry" for re-dispatches.
	Name string `json:"name"`
	// Wave is the engine-global wave sequence number the span belongs
	// to (retry spans carry the wave they repair).
	Wave int `json:"wave"`
	// Shards is the number of DPUs participating in the wave.
	Shards int `json:"shards"`
	// Start and End are offsets from the Timeline epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// DefaultTimelineCapacity bounds a Timeline's retained spans unless
// SetCapacity overrides it. Timelines used to grow without bound,
// which leaks in a long-running server recording four spans per wave;
// the default keeps the last ~16k spans (a few MB at worst) and every
// profiling run in the repo fits well inside it.
const DefaultTimelineCapacity = 16384

// Timeline accumulates spans from one or more engines, retaining at
// most its capacity (oldest spans drop first). The zero value is not
// usable; create one with NewTimeline. Record is safe for concurrent
// use.
type Timeline struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []WaveSpan // ring once len == cap
	next    int        // ring write position (== len(spans) while filling)
	cap     int
	dropped uint64
}

// NewTimeline starts an empty timeline whose epoch is now.
func NewTimeline() *Timeline {
	return &Timeline{epoch: time.Now(), cap: DefaultTimelineCapacity}
}

// SetCapacity changes the retention bound. Shrinking below the
// current span count keeps the newest spans. n <= 0 restores the
// default.
func (tl *Timeline) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultTimelineCapacity
	}
	tl.mu.Lock()
	if len(tl.spans) > n {
		ordered := tl.orderedLocked()
		tl.spans = append(tl.spans[:0], ordered[len(ordered)-n:]...)
		tl.dropped += uint64(len(ordered) - n)
	}
	tl.cap = n
	tl.next = len(tl.spans) % n
	tl.mu.Unlock()
}

// Dropped returns how many spans have been discarded to stay within
// capacity.
func (tl *Timeline) Dropped() uint64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.dropped
}

// Record appends one span, evicting the oldest if at capacity. start
// and end are wall-clock instants.
func (tl *Timeline) Record(name string, wave, shards int, start, end time.Time) {
	s := WaveSpan{
		Name:   name,
		Wave:   wave,
		Shards: shards,
		Start:  start.Sub(tl.epoch),
		End:    end.Sub(tl.epoch),
	}
	tl.mu.Lock()
	if tl.cap <= 0 { // zero-value safety
		tl.cap = DefaultTimelineCapacity
	}
	if len(tl.spans) < tl.cap {
		tl.spans = append(tl.spans, s)
		tl.next = len(tl.spans) % tl.cap
	} else {
		tl.spans[tl.next] = s
		tl.next = (tl.next + 1) % tl.cap
		tl.dropped++
	}
	tl.mu.Unlock()
}

// orderedLocked returns the retained spans in recording order. Caller
// holds tl.mu.
func (tl *Timeline) orderedLocked() []WaveSpan {
	out := make([]WaveSpan, 0, len(tl.spans))
	if len(tl.spans) == tl.cap && tl.dropped > 0 {
		out = append(out, tl.spans[tl.next:]...)
		out = append(out, tl.spans[:tl.next]...)
	} else {
		out = append(out, tl.spans...)
	}
	return out
}

// Spans returns a copy of the recorded spans in stable (Start, Wave,
// Name) order. Recording order is not deterministic when several
// engines share one timeline — spans arrive interleaved by goroutine
// scheduling — so callers comparing or rendering timelines get a
// reproducible sequence instead.
func (tl *Timeline) Spans() []WaveSpan {
	tl.mu.Lock()
	out := tl.orderedLocked()
	tl.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Wave != out[j].Wave {
			return out[i].Wave < out[j].Wave
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Reset drops all spans and restarts the epoch. Capacity is kept.
func (tl *Timeline) Reset() {
	tl.mu.Lock()
	tl.spans = tl.spans[:0]
	tl.next = 0
	tl.dropped = 0
	tl.epoch = time.Now()
	tl.mu.Unlock()
}

// MaxConcurrent returns the largest number of spans in flight at one
// instant — 1 for a fully serial timeline, >= 2 when dispatch phases
// overlapped (the signature of a pipelined run).
func (tl *Timeline) MaxConcurrent() int {
	spans := tl.Spans()
	type event struct {
		at    time.Duration
		delta int
	}
	evs := make([]event, 0, 2*len(spans))
	for _, s := range spans {
		evs = append(evs, event{s.Start, +1}, event{s.End, -1})
	}
	// Sort ends before starts at equal instants: touching spans do not
	// count as concurrent.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	cur, best := 0, 0
	for _, ev := range evs {
		cur += ev.delta
		if cur > best {
			best = cur
		}
	}
	return best
}

// Render draws the timeline as an ASCII Gantt chart, one row per span,
// width columns wide. Rows follow Spans()'s stable (Start, Wave, Name)
// order, so a pipelined run shows bars whose horizontal extents
// interleave.
func (tl *Timeline) Render(width int) string {
	spans := tl.Spans()
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	if width < 10 {
		width = 10
	}
	var t0, t1 time.Duration
	t0 = spans[0].Start
	for _, s := range spans {
		if s.Start < t0 {
			t0 = s.Start
		}
		if s.End > t1 {
			t1 = s.End
		}
	}
	total := t1 - t0
	if total <= 0 {
		total = 1
	}
	col := func(at time.Duration) int {
		c := int(int64(at-t0) * int64(width) / int64(total))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %s  duration\n", "wave/phase", strings.Repeat("-", width))
	for _, s := range spans {
		c0, c1 := col(s.Start), col(s.End)
		if c1 <= c0 {
			c1 = c0 + 1
			if c1 > width {
				c0, c1 = width-1, width
			}
		}
		bar := strings.Repeat(" ", c0) + strings.Repeat("#", c1-c0) + strings.Repeat(" ", width-c1)
		fmt.Fprintf(&b, "w%03d %-13s %s  %8.3gms\n", s.Wave, s.Name, bar,
			float64(s.End-s.Start)/float64(time.Millisecond))
	}
	fmt.Fprintf(&b, "max concurrent spans: %d\n", tl.MaxConcurrent())
	return b.String()
}
