package host

import (
	"fmt"
	"time"

	"pimdnn/internal/dpu"
)

// Wave is one fused scatter→launch→gather command — the per-wave unit
// of the execution engine, run by RunWave. Its three phases are
// interleaved per DPU (scatter DPU i, launch DPU i, gather DPU i)
// instead of sweeping all DPUs per phase — each DPU's staging buffers
// and memory stay cache-hot across its three touches, and on the worker
// pool no barrier separates the phases. The simulated accounting is
// phase-granular exactly like the discrete calls: one transfer charge
// for the scatter, one launch (max-over-DPUs cycles into Stats), one
// transfer charge for the gather.
type Wave struct {
	// DPUs is the launch width: the wave runs on the first DPUs DPUs.
	DPUs     int
	Tasklets int
	Kernel   dpu.KernelFunc
	// Stats, if non-nil, receives the launch statistics. Its PerDPU
	// backing array is reused across waves when capacity allows.
	Stats *LaunchStats

	// Scatter names the input symbol; In holds one equal-length buffer
	// per participating DPU, written at the symbol's base. A zero
	// Scatter ref skips the phase.
	Scatter SymbolRef
	In      [][]byte

	// Gather names the output symbol; Out holds one equal-length buffer
	// per participating DPU, read from the symbol's base. A zero Gather
	// ref skips the phase.
	Gather SymbolRef
	Out    [][]byte
}

// RunWave runs one fused wave. It is best-effort per DPU: a DPU that
// fails in any phase is reported in the returned *FaultReport (its Out
// buffer is not written), while every other DPU completes its full
// scatter→launch→gather and is charged normally. A malformed wave is a
// total failure: nothing runs, nothing is charged. Like the other
// synchronous System methods it is not safe for concurrent use with
// itself; it may run beside synchronous transfers on other symbols (its
// scratch is its own).
func (s *System) RunWave(w Wave) error {
	// The wave lives in a System field, not a local: execWave's range
	// function captures it, and a captured local would be heap-allocated
	// on every wave.
	s.rcur = w
	err := s.execWave(&s.rcur, &s.rwave)
	s.rcur = Wave{} // release buffer/kernel references
	return err
}

// waveScratch is RunWave's reusable per-DPU (errs, phase) and per-rank
// (tally) scratch.
type waveScratch struct {
	errs  []error
	phase []uint8
	tally []int
}

// reset returns the scratch's per-DPU slices sized to n and cleared.
func (sc *waveScratch) reset(n int) ([]error, []uint8) {
	if cap(sc.errs) < n {
		sc.errs = make([]error, n)
		sc.phase = make([]uint8, n)
	}
	sc.errs, sc.phase = sc.errs[:n], sc.phase[:n]
	for i := range sc.errs {
		sc.errs[i] = nil
		sc.phase[i] = 0
	}
	return sc.errs, sc.phase
}

// execWave runs one fused wave. Validation happens up front for every
// DPU (a total failure: nothing runs, nothing is charged) so per-DPU
// failures can only come from the device itself, matching where the
// discrete call sequence would fail.
func (s *System) execWave(w *Wave, sc *waveScratch) error {
	n := w.DPUs
	if n < 1 || n > len(s.dpus) {
		return fmt.Errorf("host: wave on %d DPUs, system has %d", n, len(s.dpus))
	}
	scatter := w.Scatter.valid()
	var inLen int
	if scatter {
		if len(w.In) != n {
			return fmt.Errorf("host: wave scatter got %d buffers for %d DPUs", len(w.In), n)
		}
		inLen = len(w.In[0])
		for i, b := range w.In {
			if len(b) != inLen {
				return fmt.Errorf("host: wave scatter buffer %d has length %d, want %d", i, len(b), inLen)
			}
		}
		if err := checkRef(w.Scatter, 0, inLen); err != nil {
			return err
		}
	}
	gather := w.Gather.valid()
	var outLen int
	if gather {
		if len(w.Out) != n {
			return fmt.Errorf("host: wave gather got %d buffers for %d DPUs", len(w.Out), n)
		}
		outLen = len(w.Out[0])
		for i, b := range w.Out {
			if len(b) != outLen {
				return fmt.Errorf("host: wave gather buffer %d has length %d, want %d", i, len(b), outLen)
			}
		}
		if err := checkRef(w.Gather, 0, outLen); err != nil {
			return err
		}
	}
	// Per-DPU stats land in the caller's PerDPU backing array when it is
	// large enough, so steady-state waves don't allocate it per call.
	// The backing array is reused across waves and now survives partial
	// failures, so stale entries must be cleared before the run.
	var per []dpu.Stats
	if w.Stats != nil && cap(w.Stats.PerDPU) >= n {
		per = w.Stats.PerDPU[:n]
		for i := range per {
			per[i] = dpu.Stats{}
		}
	} else {
		per = make([]dpu.Stats, n)
	}
	// phase records how far each DPU got, so the wave charges exactly
	// what ran: scatter bytes for the DPUs that scattered, max cycles
	// over the DPUs that launched, gather bytes for those that gathered.
	const (
		waveScattered = 1 << iota
		waveLaunched
		waveGathered
	)
	errs, phase := sc.reset(n)
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if scatter {
				if err := s.copyToOne(i, w.Scatter, 0, w.In[i]); err != nil {
					errs[i] = err
					continue
				}
				phase[i] |= waveScattered
			}
			if err := s.dpus[i].LaunchInto(w.Tasklets, w.Kernel, &per[i]); err != nil {
				errs[i] = err
				continue
			}
			phase[i] |= waveLaunched
			if gather {
				if err := s.copyFromOneInto(i, w.Gather, 0, w.Out[i]); err != nil {
					errs[i] = err
					continue
				}
				phase[i] |= waveGathered
			}
		}
	}
	if n == 1 {
		run(0, 1)
	} else {
		s.pool.runAligned(n, s.perRank, run)
	}
	// Charge in the same order as the discrete call sequence the wave
	// fuses: scatter transfer (rank-parallel, like finishXfer), launch
	// time, gather transfer.
	if scatter {
		nS, busiest := s.rankOKPhase(sc, waveScattered)
		if nS > 0 {
			s.chargeTransferRanks(inLen, nS, busiest)
			s.meterXfer(true, inLen*nS)
		}
	}
	var maxCycles uint64
	var energy float64
	for i := range per {
		if phase[i]&waveLaunched == 0 {
			continue
		}
		if per[i].Cycles > maxCycles {
			maxCycles = per[i].Cycles
		}
		energy += per[i].EnergyJ
	}
	sec := float64(maxCycles) / s.cfg.DPU.FrequencyHz
	lt := time.Duration(sec * float64(time.Second))
	if w.Stats != nil {
		*w.Stats = LaunchStats{PerDPU: per, Cycles: maxCycles, Seconds: sec, Time: lt, EnergyJ: energy}
	}
	s.mu.Lock()
	s.dpuTime += lt
	s.mu.Unlock()
	if gather {
		nG, busiest := s.rankOKPhase(sc, waveGathered)
		if nG > 0 {
			s.chargeTransferRanks(outLen, nG, busiest)
			s.meterXfer(false, outLen*nG)
		}
	}
	return s.noteFaults(faultsFrom("wave", errs))
}

// PipelineMode, PipelineOn and PipelineOff are ignored: the execution
// engine runs one wave at a time. They exist only so bench/ compiles.
type PipelineMode int

const (
	PipelineOn PipelineMode = iota
	PipelineOff
)
