package exec

import (
	"time"

	"pimdnn/internal/trace"
)

// Request-tracing integration. A runner that dispatches on behalf of a
// traced request installs the request's span on its engine; the
// engine's phase spans (wave and retry, each with its wave number and
// shard count: what trace.WaveSpans reads back) become child spans of
// that request, wave spans carry the launch's simulated
// cycle/energy attributes, and each launch fans out per-DPU
// "dpu_kernel" child spans whose extents are the *simulated* kernel
// windows — so a Perfetto view shows wall-clock dispatch machinery and
// modeled device time on one tree. With no span installed the engine's fast path is unchanged: one nil check, zero
// allocations, identical results.

// maxKernelSpans caps per-DPU kernel child spans per launch. A
// full-array wave has 2,560 DPUs; tracing them all would dwarf the
// rest of the trace, so the first 64 get spans and the launch span
// notes how many were elided (the aggregate attrs still cover all).
const maxKernelSpans = 64

// SetTraceSpan installs sp as the parent for dispatch spans; nil
// uninstalls it. Call between dispatches only.
func (e *Engine) SetTraceSpan(sp *trace.Span) { e.tsp = sp }

// traceSpan records one wave phase as a child of the request span.
// A wave additionally carries the launch's aggregate
// simulated cost and per-DPU kernel spans, staged in e.tspLS by the
// call site.
func (e *Engine) traceSpan(name string, wave, shards int, t0, t1 time.Time) {
	c := e.tsp.StartChildAt(name, t0)
	c.SetAttr("wave", int64(wave))
	c.SetAttr("shards", int64(shards))
	if e.tspLSOK {
		e.tspLSOK = false
		ls := &e.tspLS
		c.SetAttr("cycles", int64(ls.Cycles))
		c.SetAttr("sim_ns", ls.Time.Nanoseconds())
		c.SetAttr("energy_uj", int64(ls.EnergyJ*1e6))
		n := len(ls.PerDPU)
		lim := n
		if lim > maxKernelSpans {
			lim = maxKernelSpans
			c.SetAttr("dpu_spans_elided", int64(n-lim))
		}
		for d := 0; d < lim; d++ {
			per := &ls.PerDPU[d]
			k := c.StartChildAt("dpu_kernel", t0)
			k.SetAttr("dpu", int64(d))
			per.AnnotateSpan(k)
			k.EndAt(t0.Add(per.Time))
		}
	}
	c.EndAt(t1)
}
