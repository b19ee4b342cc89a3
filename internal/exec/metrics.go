package exec

import "pimdnn/internal/metrics"

// engineMetrics is the engine's resolved instrument set, built from the
// host System's registry by New. All instruments are
// nil-safe; the engine gates the whole block on one e.met nil check, so
// an unwired engine's dispatch loop is telemetry-free.
type engineMetrics struct {
	// Wall-clock phase histograms (nanoseconds): a wave, and the
	// re-dispatches after it.
	retry *metrics.Histogram
	wave  *metrics.Histogram

	waves   *metrics.Counter
	retries *metrics.Counter
	cycles  *metrics.Counter
	down    *metrics.Gauge

	// reg resolves per-layer scoped counters lazily (SetScope names
	// arrive at run time).
	reg *metrics.Registry
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	ns := metrics.ExpBuckets(1000, 4, 12) // 1µs .. ~4.2s
	return &engineMetrics{
		retry:   reg.LabeledHistogram("pim_exec_phase_ns", "phase", "retry", ns),
		wave:    reg.LabeledHistogram("pim_exec_phase_ns", "phase", "wave", ns),
		waves:   reg.Counter("pim_exec_waves_total"),
		retries: reg.Counter("pim_exec_retries_total"),
		cycles:  reg.Counter("pim_exec_cycles_total"),
		down:    reg.Gauge("pim_exec_down_dpus"),
		reg:     reg,
	}
}

// phase maps a span name to its histogram (allocation-free).
func (m *engineMetrics) phase(name string) *metrics.Histogram {
	if name == "retry" {
		return m.retry
	}
	return m.wave
}

// SetScope names the layer the next runs belong to: run deltas are
// additionally accumulated into
// pim_layer_{cycles,waves,retries}_total{layer="name"}, so a network's
// ForwardStats can be decomposed per layer from one registry snapshot.
// An empty name clears the scope; a runner sets it on every call, so no
// scope outlives the call it names. Without telemetry wired this is a
// plain field store.
func (e *Engine) SetScope(name string) { e.scope = name }

// account folds one Run's Stats delta into the engine's
// counters and the current layer scope.
func (e *Engine) account(pre Stats, st *Stats) {
	m := e.met
	dWaves := uint64(st.Waves - pre.Waves)
	dRetries := uint64(st.Retries - pre.Retries)
	dCycles := st.Cycles - pre.Cycles
	m.waves.Add(dWaves)
	m.retries.Add(dRetries)
	m.cycles.Add(dCycles)
	m.down.Set(int64(e.nDown))
	if e.scope != "" {
		m.reg.LabeledCounter("pim_layer_cycles_total", "layer", e.scope).Add(dCycles)
		m.reg.LabeledCounter("pim_layer_waves_total", "layer", e.scope).Add(dWaves)
		m.reg.LabeledCounter("pim_layer_retries_total", "layer", e.scope).Add(dRetries)
	}
}
