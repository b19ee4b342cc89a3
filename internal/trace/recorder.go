package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder retains the last N completed traces in a lock-free
// ring. Completed traces arrive from Tracer.deliver on whatever
// goroutine ended the root span; readers (the /v1/trace endpoint, the
// stats summary, dump triggers) snapshot without blocking writers.
//
// The ring holds *Trace pointers behind atomics: Add claims a slot
// with a single fetch-add and stores the pointer, so concurrent
// completions never contend on a mutex. Readers may observe a
// mid-rotation mix of old and new traces — acceptable for a
// diagnostic buffer.
type FlightRecorder struct {
	ring []atomic.Pointer[Trace]
	pos  atomic.Uint64

	dumpMu sync.Mutex
	dumps  []*DumpRecord
	onDump func(*DumpRecord)
}

// DumpRecord is one flight-recorder dump: the reason it fired and the
// traces captured at that instant, newest first.
type DumpRecord struct {
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
	Traces []*Trace  `json:"-"`
	// TraceIDs duplicates the captured IDs for JSON consumers.
	TraceIDs []TraceID `json:"trace_ids"`
}

// maxDumps bounds retained dump records; older dumps drop first.
const maxDumps = 16

// NewFlightRecorder creates a recorder retaining up to n traces.
func NewFlightRecorder(n int, onDump func(*DumpRecord)) *FlightRecorder {
	if n <= 0 {
		n = 64
	}
	return &FlightRecorder{ring: make([]atomic.Pointer[Trace], n), onDump: onDump}
}

// Add records a completed trace, evicting the oldest when full.
func (r *FlightRecorder) Add(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	i := r.pos.Add(1) - 1
	r.ring[i%uint64(len(r.ring))].Store(tr)
}

// Overwritten returns how many completed traces ring rotation has
// evicted: everything Add was handed beyond the ring's capacity.
func (r *FlightRecorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	if n, c := r.pos.Load(), uint64(len(r.ring)); n > c {
		return n - c
	}
	return 0
}

// Traces returns the retained traces, newest first.
func (r *FlightRecorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.ring))
	for i := range r.ring {
		if tr := r.ring[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id > out[j].id })
	return out
}

// Find returns the retained trace with the given ID, or nil.
func (r *FlightRecorder) Find(id TraceID) *Trace {
	if r == nil {
		return nil
	}
	for i := range r.ring {
		if tr := r.ring[i].Load(); tr != nil && tr.id == id {
			return tr
		}
	}
	return nil
}

// Dump snapshots the current ring into a DumpRecord — called when a
// request breaches its SLO or a fault report fires, so the traces
// leading up to the event survive ring rotation. The record is
// retained (up to maxDumps, oldest dropped) and passed to the
// recorder's OnDump sink if one was configured.
func (r *FlightRecorder) Dump(reason string) *DumpRecord {
	if r == nil {
		return nil
	}
	d := &DumpRecord{Reason: reason, At: time.Now(), Traces: r.Traces()}
	d.TraceIDs = make([]TraceID, len(d.Traces))
	for i, tr := range d.Traces {
		d.TraceIDs[i] = tr.id
	}
	r.dumpMu.Lock()
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > maxDumps {
		r.dumps = r.dumps[len(r.dumps)-maxDumps:]
	}
	sink := r.onDump
	r.dumpMu.Unlock()
	if sink != nil {
		sink(d)
	}
	return d
}

// Dumps returns the retained dump records, oldest first.
func (r *FlightRecorder) Dumps() []*DumpRecord {
	if r == nil {
		return nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	out := make([]*DumpRecord, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// TraceSummary is one trace's headline numbers, for the stats endpoint
// and upmem-top's slowest-requests panel.
type TraceSummary struct {
	ID         TraceID       `json:"id"`
	Name       string        `json:"name"`
	Duration   time.Duration `json:"duration_ns"`
	Spans      int           `json:"spans"`
	Dropped    int           `json:"dropped,omitempty"`
	Model      string        `json:"model,omitempty"`
	BatchSize  int64         `json:"batch_size,omitempty"`
	QueueWait  time.Duration `json:"queue_wait_ns,omitempty"`
	StartedAgo time.Duration `json:"started_ago_ns"`
}

// Summarize renders one completed trace's summary. Model, batch size
// and queue wait are pulled from well-known span names/attrs when
// present ("model"/"batch_size" on the root, a "queue_wait" span).
func Summarize(tr *Trace, now time.Time) TraceSummary {
	s := TraceSummary{ID: tr.ID(), Name: tr.Name(), StartedAgo: now.Sub(tr.Epoch())}
	tr.mu.Lock()
	s.Spans = len(tr.nodes)
	s.Dropped = tr.dropped
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if n.ID == 1 {
			s.Duration = n.End - n.Start
			for _, a := range n.Attrs {
				switch a.Key {
				case "model":
					s.Model = a.Str
				case "batch_size":
					s.BatchSize = a.Val
				}
			}
		}
		if n.Name == "queue_wait" {
			s.QueueWait += n.End - n.Start
		}
	}
	tr.mu.Unlock()
	return s
}

// Slowest returns summaries of the k slowest retained traces, slowest
// first (ties broken newest first).
func (r *FlightRecorder) Slowest(k int) []TraceSummary {
	if r == nil || k <= 0 {
		return nil
	}
	now := time.Now()
	traces := r.Traces()
	sums := make([]TraceSummary, 0, len(traces))
	for _, tr := range traces {
		sums = append(sums, Summarize(tr, now))
	}
	sort.SliceStable(sums, func(i, j int) bool { return sums[i].Duration > sums[j].Duration })
	if len(sums) > k {
		sums = sums[:k]
	}
	return sums
}
