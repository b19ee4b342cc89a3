package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace-event ("Perfetto JSON") export. The emitted object is
// the trace-event format both chrome://tracing and ui.perfetto.dev
// load: {"traceEvents": [...]} where each event is a complete slice
// (ph "X") with microsecond ts/dur, or a metadata record (ph "M")
// naming the process/thread tracks.
//
// Mapping: one trace = one Perfetto "process" (pid = trace ID), and
// spans are packed onto "threads" (tid lanes) greedily so overlapping
// spans — simulated kernel windows beside the next wave, waves of
// engines sharing a trace — never share a lane. Lane 0 always holds the root span.

// TraceEvent is one Chrome trace-event record.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level trace-event JSON object.
type perfettoFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// depthOf computes each span's depth in the tree (root = 0).
func depthOf(nodes []SpanNode) map[SpanID]int {
	parent := make(map[SpanID]SpanID, len(nodes))
	for _, n := range nodes {
		parent[n.ID] = n.Parent
	}
	depth := make(map[SpanID]int, len(nodes))
	var walk func(id SpanID) int
	walk = func(id SpanID) int {
		if d, ok := depth[id]; ok {
			return d
		}
		p, ok := parent[id]
		if !ok || p == 0 {
			depth[id] = 0
			return 0
		}
		depth[id] = -1 // cycle guard; overwritten below
		d := walk(p) + 1
		depth[id] = d
		return d
	}
	for _, n := range nodes {
		walk(n.ID)
	}
	return depth
}

// laneFor assigns tid lanes: spans are sorted by (depth, start) and
// each claims the lowest lane at or below its depth whose last
// occupant ended before the span starts. The root keeps lane 0 and
// children render beneath their ancestors while true overlaps
// split onto separate lanes.
func laneFor(nodes []SpanNode) map[SpanID]uint64 {
	depth := depthOf(nodes)
	order := make([]int, len(nodes))
	for i := range nodes {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := nodes[order[a]], nodes[order[b]]
		if depth[na.ID] != depth[nb.ID] {
			return depth[na.ID] < depth[nb.ID]
		}
		if na.Start != nb.Start {
			return na.Start < nb.Start
		}
		return na.ID < nb.ID
	})
	lane := make(map[SpanID]uint64, len(nodes))
	var laneEnd []time.Duration // last end per lane
	for _, i := range order {
		n := nodes[i]
		d := depth[n.ID]
		placed := false
		for l := d; l < len(laneEnd); l++ {
			if laneEnd[l] <= n.Start {
				lane[n.ID] = uint64(l)
				laneEnd[l] = n.End
				placed = true
				break
			}
		}
		if !placed {
			lane[n.ID] = uint64(len(laneEnd))
			laneEnd = append(laneEnd, n.End)
		}
	}
	return lane
}

// AppendTraceEvents converts one trace to trace-event records,
// appending to dst. The trace's epoch offset from base becomes the
// timestamp origin, so several traces exported together keep their
// relative timing.
func AppendTraceEvents(dst []TraceEvent, tr *Trace, base time.Time) []TraceEvent {
	nodes := tr.Spans()
	lanes := laneFor(nodes)
	pid := uint64(tr.ID())
	origin := tr.Epoch().Sub(base)
	dst = append(dst, TraceEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": fmt.Sprintf("trace %d: %s", pid, tr.Name())},
	})
	maxLane := uint64(0)
	for _, l := range lanes {
		if l > maxLane {
			maxLane = l
		}
	}
	for l := uint64(0); l <= maxLane; l++ {
		name := "spans"
		if l == 0 {
			name = "request"
		}
		dst = append(dst, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: l,
			Args: map[string]any{"name": fmt.Sprintf("%s.%d", name, l)},
		})
	}
	for _, n := range nodes {
		ev := TraceEvent{
			Name: n.Name,
			Ph:   "X",
			Ts:   float64((origin + n.Start).Nanoseconds()) / 1e3,
			Dur:  float64((n.End - n.Start).Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  lanes[n.ID],
		}
		if len(n.Attrs) > 0 {
			args := make(map[string]any, len(n.Attrs))
			for _, a := range n.Attrs {
				if a.Str != "" {
					args[a.Key] = a.Str
				} else {
					args[a.Key] = a.Val
				}
			}
			ev.Args = args
		}
		dst = append(dst, ev)
	}
	return dst
}

// WritePerfetto writes the traces as one Chrome trace-event JSON
// document. The earliest epoch among the traces is the time origin.
func WritePerfetto(w io.Writer, traces ...*Trace) error {
	var base time.Time
	for _, tr := range traces {
		if base.IsZero() || tr.Epoch().Before(base) {
			base = tr.Epoch()
		}
	}
	var events []TraceEvent
	for _, tr := range traces {
		events = AppendTraceEvents(events, tr, base)
	}
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(perfettoFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
