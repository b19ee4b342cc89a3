package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A Tracer mints Traces (one per sampled
// request); each Trace is a tree of Spans rooted at the request span.
// Spans live on the hot dispatch path, so the disabled case must cost
// one nil check and zero allocations: a nil *Span (and a nil *Tracer)
// is the "tracing off" value, and every method on both is nil-safe.
// This mirrors the internal/metrics contract — instruments observe,
// they never steer — so traced runs stay bit-identical to untraced
// ones.
//
// Completed traces are delivered to an optional FlightRecorder when
// their root span ends; exports (Perfetto JSON, summaries) read from
// there.

// TraceID identifies one trace. IDs are minted sequentially per
// Tracer, so tests and golden files are deterministic.
type TraceID uint64

// SpanID identifies one span within its trace (sequential, 1 = root).
type SpanID uint64

// Attr is one span attribute. Val carries numeric attributes; Str, when
// non-empty, carries string attributes. A two-field value (no
// interface{}) keeps SetAttr allocation-free up to a span's inline
// room.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
	Str string `json:"str,omitempty"`
}

// SpanNode is one finished span as stored in its Trace: a flat record
// linked to its parent by ID. Start and End are offsets from the trace
// epoch (marshalled as nanoseconds).
type SpanNode struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent"` // 0 for the root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Trace is one request's span tree. Spans append their finished
// records here; the trace completes when its root span ends.
type Trace struct {
	id    TraceID
	name  string
	epoch time.Time

	mu       sync.Mutex
	seq      SpanID
	nodes    []SpanNode
	links    []link
	maxSpans int
	dropped  int
	done     bool

	onDone func(*Trace) // tracer -> recorder delivery, set at mint time
}

// link is another trace's span subtree hung under one of this trace's
// spans (Span.Link). Holding src keeps it readable for as long as this
// trace is.
type link struct {
	under SpanID
	src   *Trace
	root  SpanID
}

// ID returns the trace's identifier.
func (tr *Trace) ID() TraceID { return tr.id }

// Name returns the root span's name.
func (tr *Trace) Name() string { return tr.name }

// Epoch returns the wall-clock instant span offsets are relative to.
func (tr *Trace) Epoch() time.Time { return tr.epoch }

// Complete reports whether the root span has ended.
func (tr *Trace) Complete() bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.done
}

// resolve counts the trace's spans and dropped spans with its links
// resolved and, when copied is set, returns a copy of them: the finished
// spans in record order, then each link's subtree in its source's record
// order, IDs re-minted after the trace's own, the root hung under the
// linking span, offsets rebased onto this epoch, cut at the span cap the
// trace's own non-root spans leave (the rest counted as dropped). A
// link's own links are not followed.
func (tr *Trace) resolve(copied bool) (out []SpanNode, spans, dropped int) {
	tr.mu.Lock()
	if copied {
		out = append(out, tr.nodes...)
	}
	links, seq, spans, dropped := tr.links, tr.seq, len(tr.nodes), tr.dropped
	room := tr.maxSpans - spans
	if tr.done {
		room++
	}
	tr.mu.Unlock()
	for _, l := range links {
		l.src.mu.Lock()
		src := l.src.nodes[:len(l.src.nodes):len(l.src.nodes)] // recorded nodes never change
		l.src.mu.Unlock()
		kids := make(map[SpanID][]SpanID, len(src))
		for _, n := range src {
			kids[n.Parent] = append(kids[n.Parent], n.ID)
		}
		ids := map[SpanID]SpanID{l.root: 0} // the subtree, then its new IDs
		for q := []SpanID{l.root}; len(q) > 0; q = q[1:] {
			for _, k := range kids[q[0]] {
				ids[k], q = 0, append(q, k)
			}
		}
		for _, n := range src {
			if _, in := ids[n.ID]; in {
				seq++
				ids[n.ID] = seq
			}
		}
		shift := l.src.epoch.Sub(tr.epoch)
		for _, n := range src {
			switch id, parent := ids[n.ID], ids[n.Parent]; {
			case id == 0: // outside the subtree
			case tr.maxSpans > 0 && room <= 0:
				dropped++
			default:
				if room, spans = room-1, spans+1; parent == 0 {
					parent = l.under
				}
				if copied {
					out = append(out, SpanNode{ID: id, Parent: parent, Name: n.Name,
						Start: n.Start + shift, End: n.End + shift, Attrs: n.Attrs})
				}
			}
		}
	}
	return out, spans, dropped
}

// Spans returns a copy of the finished spans, links resolved, in stable
// (Start, ID) order. Span end order is scheduling-dependent when engine
// goroutines share the trace, so callers get a reproducible sequence.
func (tr *Trace) Spans() []SpanNode {
	out, _, _ := tr.resolve(true)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Root returns the root span's node and whether it has finished.
func (tr *Trace) Root() (SpanNode, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.nodes {
		if tr.nodes[i].ID == 1 {
			return tr.nodes[i], true
		}
	}
	return SpanNode{}, false
}

// record appends one finished node, enforcing the per-trace cap. The
// root node always lands (it carries the trace's identity).
func (tr *Trace) record(n SpanNode) {
	tr.mu.Lock()
	if tr.maxSpans > 0 && len(tr.nodes) >= tr.maxSpans && n.ID != 1 {
		tr.dropped++
		tr.mu.Unlock()
		return
	}
	tr.nodes = append(tr.nodes, n)
	fire := false
	if n.ID == 1 && !tr.done {
		tr.done = true
		fire = true
	}
	tr.mu.Unlock()
	if fire && tr.onDone != nil {
		tr.onDone(tr)
	}
}

// nextID mints the next span ID in this trace.
func (tr *Trace) nextID() SpanID {
	tr.mu.Lock()
	tr.seq++
	id := tr.seq
	tr.mu.Unlock()
	return id
}

// Span is one live (un-ended) span. A nil *Span means tracing is
// disabled on this path: every method no-ops, so call sites pay one
// branch. Span values are not safe for concurrent mutation — each
// goroutine works on its own child span — but creating children of a
// shared parent from several goroutines is safe (the trace's mutex
// serializes record/nextID).
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
	attrs  []Attr
	inline [7]Attr // attrs' first backing: as many as a dpu_kernel span sets
}

// StartTrace begins a new trace rooted at a span called name. It
// returns nil (tracing disabled) when t is nil or this request is
// sampled out; callers hand the nil on down the stack unexamined.
func (t *Tracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	if t.sample > 1 {
		if (t.sampleCnt.Add(1)-1)%uint64(t.sample) != 0 {
			return nil
		}
	}
	tr := &Trace{
		id:       TraceID(t.seq.Add(1)),
		name:     name,
		epoch:    time.Now(),
		maxSpans: t.maxSpans,
		onDone:   t.deliver,
	}
	tr.seq = 1 // root took ID 1
	return &Span{tr: tr, id: 1, name: name, start: 0}
}

// Trace returns the span's trace, or nil for a disabled span.
func (sp *Span) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.tr
}

// TraceID returns the owning trace's ID, or 0 for a disabled span.
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return 0
	}
	return sp.tr.id
}

// StartChild begins a child span starting now.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.StartChildAt(name, time.Now())
}

// StartChildAt begins a child span with an explicit start instant —
// used to stamp spans retroactively (zero-length "dpu_down" marks,
// simulated kernel windows) without observing the clock on the
// instrumented path.
func (sp *Span) StartChildAt(name string, start time.Time) *Span {
	if sp == nil {
		return nil
	}
	return &Span{
		tr:     sp.tr,
		id:     sp.tr.nextID(),
		parent: sp.id,
		name:   name,
		start:  start.Sub(sp.tr.epoch),
	}
}

// SetAttr attaches a numeric attribute.
func (sp *Span) SetAttr(key string, val int64) { sp.setAttr(Attr{Key: key, Val: val}) }

// SetAttrStr attaches a string attribute.
func (sp *Span) SetAttrStr(key, val string) { sp.setAttr(Attr{Key: key, Str: val}) }

func (sp *Span) setAttr(a Attr) {
	if sp == nil {
		return
	}
	if sp.attrs == nil {
		sp.attrs = sp.inline[:0]
	}
	sp.attrs = append(sp.attrs, a)
}

// End finishes the span now. Ending the root span completes the trace
// and delivers it to the tracer's recorder.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.EndAt(time.Now())
}

// EndAt finishes the span at an explicit instant.
func (sp *Span) EndAt(end time.Time) {
	if sp == nil {
		return
	}
	sp.tr.record(SpanNode{
		ID:     sp.id,
		Parent: sp.parent,
		Name:   sp.name,
		Start:  sp.start,
		End:    end.Sub(sp.tr.epoch),
		Attrs:  sp.attrs,
	})
}

// Link hangs the subtree under src (src's own node included, once
// finished) beneath sp, without copying it: sp's trace keeps a
// reference to src's trace, and readers (Spans, WaveSpans, Summarize,
// the Perfetto export) resolve it. Co-batched requests use it:
// the batch leader's trace carries the real exec subtree, and each
// follower links to it, so every request's trace shows the full path to
// the DPU launches it shared. Linking from a nil src, into a nil sp or
// within one trace is a no-op.
func (sp *Span) Link(src *Span) {
	if sp == nil || src == nil || src.tr == sp.tr {
		return
	}
	sp.tr.mu.Lock()
	sp.tr.links = append(sp.tr.links, link{under: sp.id, src: src.tr, root: src.id})
	sp.tr.mu.Unlock()
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Sample keeps 1 in Sample traces (head sampling; <=1 keeps all).
	Sample int
	// Ring is the flight-recorder capacity in traces (<=0: 64).
	Ring int
	// MaxSpans caps spans per trace (<=0: 4096). The cap bounds memory
	// on pathological requests; dropped spans are counted on the trace.
	MaxSpans int
	// OnDump, when set, receives every flight-recorder dump (e.g. to
	// write it to disk). Called synchronously from Dump.
	OnDump func(*DumpRecord)
}

// Tracer mints traces and owns the flight recorder that retains them.
// A nil *Tracer is the disabled tracer: StartTrace returns nil.
type Tracer struct {
	sample    int
	maxSpans  int
	seq       atomic.Uint64
	sampleCnt atomic.Uint64
	rec       *FlightRecorder
}

// NewTracer creates a tracer with an attached flight recorder.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 64
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 4096
	}
	return &Tracer{
		sample:   cfg.Sample,
		maxSpans: cfg.MaxSpans,
		rec:      NewFlightRecorder(cfg.Ring, cfg.OnDump),
	}
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// deliver hands a completed trace to the flight recorder.
func (t *Tracer) deliver(tr *Trace) {
	if t == nil || t.rec == nil {
		return
	}
	t.rec.Add(tr)
}
