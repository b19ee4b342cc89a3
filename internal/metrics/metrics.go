// Package metrics is the stack's telemetry registry: dependency-free
// (stdlib only) atomic counters, gauges, and fixed-bucket histograms,
// designed so instrumented hot paths cost one nil-check branch and zero
// allocations when telemetry is disabled, and a handful of atomic adds
// when it is enabled.
//
// The contract, relied on by every instrumented package:
//
//   - Nil-safety. Every instrument method (Add, Inc, Set, Observe) and
//     every Registry getter is safe on a nil receiver: a nil *Registry
//     hands out nil instruments, and updating a nil instrument is a
//     no-op. Code therefore resolves instruments once at setup time and
//     updates them unconditionally — no "is telemetry on" plumbing.
//   - Bit-identity. Instruments observe the simulation, never steer it:
//     no simulated clock, cycle count, or experiment output may depend
//     on whether a registry is wired. The invariant is pinned by
//     tests in the instrumented packages.
//   - Monotonic snapshots. Counter values and histogram bucket counts
//     only grow; Snapshot loads each value atomically, so concurrent
//     readers see monotonically non-decreasing values and never a torn
//     (partially updated) histogram: a histogram's snapshot Count is
//     derived from the bucket loads themselves.
package metrics

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value (queue depth, down-DPU count).
// The zero value is ready to use; a nil *Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts uint64 observations (latencies in nanoseconds, sizes
// in bytes, occupancies) into fixed buckets chosen at registration.
// Bounds are inclusive upper edges; observations above the last bound
// land in an implicit +Inf bucket. A nil *Histogram ignores updates.
type Histogram struct {
	bounds []uint64        // ascending upper edges, immutable after creation
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64
	// Exemplars: the most recent (value, trace ID) pair observed per
	// bucket, linking a latency bucket to a concrete request trace.
	// Written only by ObserveExemplar; two independent atomics, so a
	// reader may pair a value with a neighbouring observation's trace ID
	// — acceptable for a diagnostic hint.
	exVal []atomic.Uint64 // len(bounds)+1
	exID  []atomic.Uint64 // len(bounds)+1; 0 = no exemplar yet
}

// Observe records one value. Allocation-free; no-op on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and attaches traceID as the
// bucket's exemplar, so renderings can point at a concrete request
// trace behind a latency bucket. A zero traceID (request not sampled)
// degrades to a plain Observe. Allocation-free; no-op on a nil
// receiver.
func (h *Histogram) ObserveExemplar(v uint64, traceID uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exVal[i].Store(v)
		h.exID[i].Store(traceID)
	}
}

// Count returns the total number of observations, derived from the
// bucket counts (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n bucket bounds starting at start and growing by
// factor: the standard shape for latency and size histograms.
func ExpBuckets(start, factor uint64, n int) []uint64 {
	if factor < 2 {
		factor = 2
	}
	b := make([]uint64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		b = append(b, v)
		v *= factor
	}
	return b
}

// LinearBuckets returns n bucket bounds start, start+step, ...: the
// shape for small enumerable quantities (tasklet occupancy, shards).
func LinearBuckets(start, step uint64, n int) []uint64 {
	b := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, start+uint64(i)*step)
	}
	return b
}

// instrumentID keys one instrument: a name plus an optional single
// label pair ("pim_dpu_cycles_total"{dpu="17"}).
type instrumentID struct {
	name     string
	labelKey string
	labelVal string
}

// CounterVec is a fixed-label family of counters indexed by a small
// integer (one per DPU). At is lock-free; the backing slice grows
// copy-on-write when a larger system registers the same family.
type CounterVec struct {
	cs atomic.Pointer[[]*Counter]
}

// At returns the i'th counter, or nil when the receiver is nil or i is
// out of range — so vec.At(i).Add(n) is always safe.
func (v *CounterVec) At(i int) *Counter {
	if v == nil {
		return nil
	}
	cs := *v.cs.Load()
	if i < 0 || i >= len(cs) {
		return nil
	}
	return cs[i]
}

// Len returns the current family width (0 on a nil receiver).
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	return len(*v.cs.Load())
}

// Registry owns a set of named instruments. Getters are get-or-create
// and idempotent: the same (name, label) always returns the same
// instrument, so repeated wiring (one registry across many Systems)
// accumulates into shared counters. A nil *Registry returns nil
// instruments from every getter, making the disabled path free.
type Registry struct {
	mu       sync.Mutex
	counters map[instrumentID]*Counter
	gauges   map[instrumentID]*Gauge
	hists    map[instrumentID]*Histogram
	bounds   map[string][]uint64 // histogram family name -> bounds (first registration wins)
	vecs     map[instrumentID]*CounterVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[instrumentID]*Counter),
		gauges:   make(map[instrumentID]*Gauge),
		hists:    make(map[instrumentID]*Histogram),
		bounds:   make(map[string][]uint64),
		vecs:     make(map[instrumentID]*CounterVec),
	}
}

// Counter returns the counter named name (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	return r.LabeledCounter(name, "", "")
}

// LabeledCounter returns the counter name{key="val"}.
func (r *Registry) LabeledCounter(name, key, val string) *Counter {
	if r == nil {
		return nil
	}
	id := instrumentID{name, key, val}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[id]
	if c == nil {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns the gauge named name (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	return r.LabeledGauge(name, "", "")
}

// LabeledGauge returns the gauge name{key="val"}.
func (r *Registry) LabeledGauge(name, key, val string) *Gauge {
	if r == nil {
		return nil
	}
	id := instrumentID{name, key, val}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns the histogram named name with the given bucket
// bounds (ascending upper edges). The first registration of a family
// fixes its bounds; later calls ignore the argument and return the
// existing instrument. Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	return r.LabeledHistogram(name, "", "", bounds)
}

// LabeledHistogram returns the histogram name{key="val"}.
func (r *Registry) LabeledHistogram(name, key, val string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	id := instrumentID{name, key, val}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[id]
	if h == nil {
		fam, ok := r.bounds[name]
		if !ok {
			fam = append([]uint64(nil), bounds...)
			r.bounds[name] = fam
		}
		// One backing array for counts + exemplar slots: labels
		// materialize lazily on hot paths, and a single allocation keeps
		// the first-observation cost identical to the pre-exemplar layout.
		n := len(fam) + 1
		buf := make([]atomic.Uint64, 3*n)
		h = &Histogram{
			bounds: fam,
			counts: buf[:n:n],
			exVal:  buf[n : 2*n : 2*n],
			exID:   buf[2*n : 3*n : 3*n],
		}
		r.hists[id] = h
	}
	return h
}

// CounterVec returns a family of n counters name{key="0"} ..
// name{key="n-1"}. Re-registering with a larger n grows the family
// copy-on-write (At stays lock-free); a smaller n returns the existing
// wider family. Nil on a nil registry.
func (r *Registry) CounterVec(name, key string, n int) *CounterVec {
	if r == nil {
		return nil
	}
	id := instrumentID{name: name, labelKey: key}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vecs[id]
	if v == nil {
		v = &CounterVec{}
		empty := make([]*Counter, 0)
		v.cs.Store(&empty)
		r.vecs[id] = v
	}
	cur := *v.cs.Load()
	if n > len(cur) {
		grown := make([]*Counter, n)
		copy(grown, cur)
		for i := len(cur); i < n; i++ {
			c := &Counter{}
			grown[i] = c
			// Register each element as a labeled counter so snapshots
			// and renderers see one uniform instrument space.
			r.counters[instrumentID{name, key, strconv.Itoa(i)}] = c
		}
		v.cs.Store(&grown)
	}
	return v
}
