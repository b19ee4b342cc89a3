package host

import (
	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
)

// sysMetrics is the host runtime's resolved instrument set. Every field
// is a nil-safe instrument; the whole block is gated by one s.met nil
// check on each hot path, so a System without telemetry pays one branch
// and zero allocations. Instruments observe only — the simulated clocks
// and transfer charges never read them.
type sysMetrics struct {
	reg *metrics.Registry

	// Host<->PIM traffic by direction (one op per API call, bytes
	// summed over the DPUs that actually moved data — mirroring the
	// chargeTransfer accounting).
	xferOpsTo     *metrics.Counter
	xferBytesTo   *metrics.Counter
	xferOpsFrom   *metrics.Counter
	xferBytesFrom *metrics.Counter

	// Worker-pool utilization: shards actually used per parallel run
	// (pool width bounds the top bucket).
	poolShards *metrics.Histogram

	// Partial-failure reporting: FaultReports returned to callers and
	// the per-DPU fault entries they carried.
	faultReports *metrics.Counter
	dpuFaults    *metrics.Counter
}

// EnableMetrics wires the System — and every DPU in it — to reg; a nil
// reg unwires. One registry may back many Systems: instruments are
// get-or-create by name, so counts accumulate across Systems (per-DPU
// families are indexed by DPU position). Call before the System is
// used from multiple goroutines.
func (s *System) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.met = nil
		s.pool.shards = nil
		for _, d := range s.dpus {
			d.SetMetrics(nil)
		}
		return
	}
	n := len(s.dpus)
	launches := reg.CounterVec("pim_dpu_launches_total", "dpu", n)
	cycles := reg.CounterVec("pim_dpu_cycles_total", "dpu", n)
	mramBytes := reg.CounterVec("pim_dpu_mram_bytes_total", "dpu", n)
	mramAcc := reg.CounterVec("pim_dpu_mram_accesses_total", "dpu", n)
	wramBytes := reg.CounterVec("pim_dpu_wram_bytes_total", "dpu", n)
	wramAcc := reg.CounterVec("pim_dpu_wram_accesses_total", "dpu", n)
	faults := reg.CounterVec("pim_dpu_faults_total", "dpu", n)
	occ := reg.Histogram("pim_dpu_tasklets_per_launch",
		metrics.LinearBuckets(1, 1, dpu.MaxTasklets))
	for i, d := range s.dpus {
		d.SetMetrics(&dpu.Metrics{
			Launches:          launches.At(i),
			Cycles:            cycles.At(i),
			MRAMBytes:         mramBytes.At(i),
			MRAMAccesses:      mramAcc.At(i),
			WRAMBytes:         wramBytes.At(i),
			WRAMAccesses:      wramAcc.At(i),
			Faults:            faults.At(i),
			TaskletsPerLaunch: occ,
		})
	}
	s.pool.shards = reg.Histogram("pim_host_pool_shards",
		metrics.LinearBuckets(1, 1, s.pool.workers))
	s.met = &sysMetrics{
		reg:           reg,
		xferOpsTo:     reg.LabeledCounter("pim_host_xfer_ops_total", "dir", "to_dpu"),
		xferBytesTo:   reg.LabeledCounter("pim_host_xfer_bytes_total", "dir", "to_dpu"),
		xferOpsFrom:   reg.LabeledCounter("pim_host_xfer_ops_total", "dir", "from_dpu"),
		xferBytesFrom: reg.LabeledCounter("pim_host_xfer_bytes_total", "dir", "from_dpu"),
		poolShards:    s.pool.shards,
		faultReports:  reg.Counter("pim_host_fault_reports_total"),
		dpuFaults:     reg.Counter("pim_host_dpu_faults_total"),
	}
}

// MetricsRegistry returns the registry wired by EnableMetrics, or nil.
// The execution engine uses it to resolve its own instruments.
func (s *System) MetricsRegistry() *metrics.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// meterXfer records one completed transfer op of n payload bytes in the
// given direction. One branch when telemetry is off.
func (s *System) meterXfer(toDPU bool, n int) {
	m := s.met
	if m == nil {
		return
	}
	if toDPU {
		m.xferOpsTo.Inc()
		m.xferBytesTo.Add(uint64(n))
	} else {
		m.xferOpsFrom.Inc()
		m.xferBytesFrom.Add(uint64(n))
	}
}

// noteFaults records err's partial-failure report (if it is one) and
// returns err unchanged, so fault returns can be wrapped in place.
func (s *System) noteFaults(err error) error {
	if err == nil || s.met == nil {
		return err
	}
	if fr, ok := AsFaultReport(err); ok {
		s.met.faultReports.Inc()
		s.met.dpuFaults.Add(uint64(len(fr.Faults)))
	}
	return err
}
