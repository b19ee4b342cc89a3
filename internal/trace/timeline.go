package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The wave timeline: a read-only view of a request Trace. The execution
// engine (internal/exec) records the *wall-clock* phases of its dispatch
// machinery — when each wave (and any retry) occupied the host — as
// children of the request span installed on it. The engine runs one
// wave at a time, so one engine's spans are strictly sequential.

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
	// Start and End are offsets from the trace epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// WaveSpans returns the trace's wave timeline: the finished spans, links
// resolved, that carry the engine's "wave" attribute — its phase spans,
// not the per-DPU kernels ("dpu_kernel") — in stable (Start, Wave, Name)
// order. Span end order is scheduling-dependent when several engines
// share the trace, so callers comparing or rendering timelines get a
// reproducible sequence. Retention is the trace's: spans past its
// MaxSpans cap are counted in Summarize's Dropped.
func (tr *Trace) WaveSpans() []WaveSpan {
	var out []WaveSpan
	nodes, _, _ := tr.resolve(true)
	for i := range nodes {
		n := &nodes[i]
		s := WaveSpan{Name: n.Name, Start: n.Start, End: n.End}
		isWave := false
		for _, a := range n.Attrs {
			switch a.Key {
			case "wave":
				s.Wave, isWave = int(a.Val), true
			case "shards":
				s.Shards = int(a.Val)
			}
		}
		if isWave {
			out = append(out, s)
		}
	}
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

// MaxConcurrent returns the largest number of spans in flight at one
// instant — 1 for a fully serial timeline, >= 2 when dispatch phases
// overlapped (engines sharing one trace).
func MaxConcurrent(spans []WaveSpan) int {
	// The count only rises where a span starts, so the maximum is at one
	// of the starts. A span ending at that instant is not in flight:
	// touching spans do not count as concurrent.
	best := 0
	for _, a := range spans {
		n := 0
		for _, b := range spans {
			if b.Start <= a.Start && a.Start < b.End {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

// Render draws a wave timeline as an ASCII Gantt chart, one row per
// span in the order given (WaveSpans' stable order), width columns wide,
// so overlapping spans show bars whose horizontal extents interleave.
func Render(spans []WaveSpan, width int) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	if width < 10 {
		width = 10
	}
	t0, t1 := spans[0].Start, spans[0].End
	for _, s := range spans {
		t0, t1 = min(t0, s.Start), max(t1, s.End)
	}
	total := max(t1-t0, 1)
	// Every instant lies in [t0, t1], so every column in [0, width].
	col := func(at time.Duration) int {
		return int(int64(at-t0) * int64(width) / int64(total))
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
	fmt.Fprintf(&b, "max concurrent spans: %d\n", MaxConcurrent(spans))
	return b.String()
}
