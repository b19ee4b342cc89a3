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
// transfer charge for the gather. The synchronous multi-DPU calls are
// the same command with phases left out (phaseRunner).
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
	// Scatter ref with no In skips the phase.
	Scatter SymbolRef
	In      [][]byte

	// Gather names the output symbol; Out holds one equal-length buffer
	// per participating DPU, read from the symbol's base. A zero Gather
	// ref with no Out skips the phase.
	Gather SymbolRef
	Out    [][]byte

	// off is the transfer offset within Scatter and Gather (a push's or
	// a gather's; a wave's is 0). bcast, when set, is scattered to every
	// DPU in place of In (CopyToSymbolRef).
	off   int64
	bcast []byte

	// visit, when set, makes the gather GatherRows' in-place walk of
	// rows rows of rowBytes on each DPU skip leaves in, instead of Out;
	// fill makes the scatter ScatterRows' in-place write of them on the
	// first filled DPUs (zero rows on the rest), instead of In.
	visit, fill    func(i, first, count int, block []byte, blockStride int)
	rows, rowBytes int
	skip           []bool
	filled         int
}

// RunWave runs one fused wave. It is best-effort per DPU: a DPU that
// fails in any phase is reported in the returned *FaultReport (its Out
// buffer is not written), while every other DPU completes its full
// scatter→launch→gather and is charged normally. A malformed wave — a
// width, buffer set, tasklet count or nil kernel the launch would
// reject — is a total failure: nothing runs, nothing is charged. Like
// the other synchronous System methods it is not safe for concurrent
// use with itself; it may run beside synchronous transfers on other
// symbols (its runner is its own).
func (s *System) RunWave(w Wave) error {
	phases := phLaunched
	if w.Scatter.valid() || w.In != nil {
		phases |= phScattered
	}
	if w.Gather.valid() || w.Out != nil {
		phases |= phGathered
	}
	_, err := s.waves.do("wave", w, phases)
	return err
}

// Phase bits: the phases a request asks for, and per DPU how far it got.
const (
	phScattered uint8 = 1 << iota
	phLaunched
	phGathered
)

// phaseRunner is the host's one best-effort multi-DPU loop. On each of
// the request's DPUs it runs the phases the request asks for — scatter,
// launch, gather, in that order — stopping that DPU at its first
// failure. phase records how far each DPU got, so the run charges exactly what
// ran: the busiest rank's share of each transfer over the DPUs that
// moved bytes (tallyRanks), the slowest DPU that completed for the
// launch. Fan-out: the worker pool from 2 DPUs when the request
// launches, from parallelThreshold when it only moves per-DPU buffers;
// the caller otherwise, and for a broadcast, whose payload is a
// parameter block a pool dispatch would cost more than. A System holds
// two: waves serves RunWave, calls the synchronous transfers and
// launches, so a wave may run beside a transfer on another symbol.
type phaseRunner struct {
	s *System
	// The current request. It lives in the runner, and run is loop
	// bound once at NewSystem, so the fan-out captures nothing per call:
	// a per-call closure would be heap-allocated on every transfer.
	w                       Wave
	scatter, launch, gather bool
	per                     []dpu.Stats
	run                     func(lo, hi int)

	errs  []error
	phase []uint8
	tally []int
}

// do validates the request w, runs its phases on its first w.DPUs DPUs
// and charges it in the order of the discrete calls: scatter, launch,
// gather. A malformed request is an ordinary error: nothing runs,
// nothing is charged. op names the call in a *FaultReport.
func (r *phaseRunner) do(op string, w Wave, phases uint8) (LaunchStats, error) {
	s := r.s
	n := w.DPUs
	if n < 1 || n > len(s.dpus) {
		return LaunchStats{}, fmt.Errorf("host: %s on %d DPUs, system has %d", op, n, len(s.dpus))
	}
	launch := phases&phLaunched != 0
	if launch && w.Kernel == nil {
		return LaunchStats{}, fmt.Errorf("host: %s with a nil kernel", op)
	}
	if launch && (w.Tasklets < 1 || w.Tasklets > dpu.MaxTasklets) {
		return LaunchStats{}, fmt.Errorf("host: %s tasklet count %d outside 1..%d", op, w.Tasklets, dpu.MaxTasklets)
	}
	var inLen, outLen int
	var err error
	r.scatter, r.gather = phases&phScattered != 0, phases&phGathered != 0
	switch {
	case w.bcast != nil:
		inLen, err = len(w.bcast), checkRef(w.Scatter, w.off, len(w.bcast))
	case w.fill != nil:
		inLen, err = rowsLen(op, w.Scatter, w.rows, w.rowBytes)
	case r.scatter:
		inLen, err = phaseLen(op, w.Scatter, w.off, w.In, n)
	}
	if r.gather && err == nil {
		if w.visit != nil {
			outLen, err = rowsLen(op, w.Gather, w.rows, w.rowBytes)
		} else {
			outLen, err = phaseLen(op, w.Gather, w.off, w.Out, n)
		}
	}
	if err != nil {
		return LaunchStats{}, err
	}

	r.w, r.launch = w, launch
	r.reset(n)
	if launch {
		// Per-DPU stats land in the caller's PerDPU backing when it is
		// large enough; it survives partial failures, so stale entries
		// are cleared first.
		if w.Stats != nil && cap(w.Stats.PerDPU) >= n {
			r.per = w.Stats.PerDPU[:n]
			clear(r.per)
		} else {
			r.per = make([]dpu.Stats, n)
		}
	}
	par := parallelThreshold
	if launch {
		par = 2
	}
	switch {
	case w.bcast != nil && w.Scatter.kind == dpu.SymbolMRAM:
		r.broadcastMRAM(w.Scatter.off+w.off, w.bcast)
	case w.bcast != nil || n < par:
		r.loop(0, n)
	default:
		s.pool.runAligned(n, s.perRank, r.run)
	}

	if r.scatter {
		r.chargeXfer(phScattered, inLen, true)
	}
	var ls LaunchStats
	if launch {
		for i := range r.per {
			if r.phase[i]&phLaunched != 0 {
				ls.Cycles = max(ls.Cycles, r.per[i].Cycles)
				ls.EnergyJ += r.per[i].EnergyJ
			}
		}
		ls.PerDPU = r.per
		ls.Seconds = float64(ls.Cycles) / s.cfg.DPU.FrequencyHz
		ls.Time = time.Duration(ls.Seconds * float64(time.Second))
		if w.Stats != nil {
			*w.Stats = ls
		}
		s.mu.Lock()
		s.dpuTime += ls.Time
		s.mu.Unlock()
	}
	if r.gather {
		r.chargeXfer(phGathered, outLen, false)
	}
	r.w, r.per = Wave{}, nil // release buffer and kernel references
	return ls, s.noteFaults(faultsFrom(op, r.errs))
}

// phaseLen validates one transfer phase — n buffers of one length,
// inside ref at off — and returns the length.
func phaseLen(op string, ref SymbolRef, off int64, bufs [][]byte, n int) (int, error) {
	if len(bufs) != n {
		return 0, fmt.Errorf("host: %s got %d buffers for %d DPUs", op, len(bufs), n)
	}
	l := len(bufs[0])
	for i, b := range bufs {
		if len(b) != l {
			return 0, fmt.Errorf("host: %s buffer %d has length %d, want %d", op, i, len(b), l)
		}
	}
	return l, checkRef(ref, off, l)
}

// rowsLen validates a GatherRows or ScatterRows request and returns its
// per-DPU length.
func rowsLen(op string, ref SymbolRef, rows, rowBytes int) (int, error) {
	if ref.kind == dpu.SymbolWRAM || rows < 1 || rowBytes < 1 || rowBytes%dpu.DMAAlignment != 0 {
		return 0, fmt.Errorf("host: %s of %d rows of %d bytes at %q, want an MRAM symbol and positive, %d-byte aligned rows",
			op, rows, rowBytes, ref.name, dpu.DMAAlignment)
	}
	return rows * rowBytes, checkRef(ref, 0, rows*rowBytes)
}

// reset sizes the per-DPU scratch to n entries and clears it.
func (r *phaseRunner) reset(n int) {
	if cap(r.errs) < n {
		r.errs, r.phase = make([]error, n), make([]uint8, n)
	}
	r.errs, r.phase = r.errs[:n], r.phase[:n]
	clear(r.errs)
	clear(r.phase)
}

// loop runs the request's phases on DPUs [lo, hi).
func (r *phaseRunner) loop(lo, hi int) {
	s, w := r.s, &r.w
	scatter, launch, gather := r.scatter, r.launch, r.gather
	for i := lo; i < hi; i++ {
		if w.skip != nil && w.skip[i] {
			continue
		}
		var p uint8
		var err error
		if scatter {
			if w.fill == nil {
				src := w.bcast
				if src == nil {
					src = w.In[i]
				}
				err = s.copyToOne(i, w.Scatter, w.off, src)
			} else if err = s.dpus[i].TransferFault(); err == nil {
				err = s.dpus[i].WriteMRAMRows(w.Scatter.off, w.rowBytes, w.rows, func(first, count int, block []byte, blockStride int) {
					if i < w.filled {
						w.fill(i, first, count, block, blockStride)
					} else {
						clear(block)
					}
				})
			}
			if err == nil {
				p |= phScattered
			}
		}
		if launch && err == nil {
			if err = s.dpus[i].LaunchInto(w.Tasklets, w.Kernel, &r.per[i]); err == nil {
				p |= phLaunched
			}
		}
		if gather && err == nil {
			if w.visit == nil {
				err = s.copyFromOneInto(i, w.Gather, w.off, w.Out[i])
			} else if err = s.dpus[i].TransferFault(); err == nil {
				err = s.dpus[i].ReadMRAMRows(w.Gather.off, w.rowBytes, w.rows, func(first, count int, block []byte, blockStride int) {
					w.visit(i, first, count, block, blockStride)
				})
			}
			if err == nil {
				p |= phGathered
			}
		}
		r.errs[i], r.phase[i] = err, p
	}
}

// broadcastMRAM is the scatter phase of an MRAM broadcast: every DPU's
// injector is consulted once, as copyToOne would, and the DPUs that pass
// take the write together, sharing its pages (dpu.MRAMBroadcast). An
// argument the DMA rules reject fails on each of them.
func (r *phaseRunner) broadcastMRAM(off int64, data []byte) {
	s := r.s
	targets := s.bcastTargets[:0]
	for i, d := range s.dpus {
		if r.errs[i] = d.TransferFault(); r.errs[i] == nil {
			targets = append(targets, d)
			r.phase[i] = phScattered
		}
	}
	s.bcastTargets = targets
	if err := s.bcast.Write(targets, off, data, s.ParallelFor); err != nil {
		for i := range r.errs {
			if r.errs[i] == nil {
				r.errs[i], r.phase[i] = err, 0
			}
		}
	}
}

// chargeXfer charges one transfer API call of perDPU bytes to each DPU
// whose phase has bit set, timed as the busiest rank's serial share
// (topology.go). A phase no DPU completed charges nothing.
func (r *phaseRunner) chargeXfer(bit uint8, perDPU int, toDPU bool) {
	if nOK, busiest := r.tallyRanks(bit); nOK > 0 {
		r.s.chargeTransferRanks(perDPU, nOK, busiest)
		r.s.meterXfer(toDPU, perDPU*nOK)
	}
}

// PipelineMode, PipelineOn and PipelineOff are ignored: the execution
// engine runs one wave at a time. They exist only so bench/ compiles.
type PipelineMode int

const (
	PipelineOn PipelineMode = iota
	PipelineOff
)
