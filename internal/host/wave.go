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
// transfer charge for the gather. The synchronous calls are the same
// command with phases left out (phaseRunner).
type Wave struct {
	// Start and DPUs address the wave's DPUs, [Start, Start+DPUs): the
	// engine's waves start at DPU 0, a re-dispatch is one DPU alone.
	Start, DPUs int
	Tasklets    int
	Kernel      dpu.KernelFunc
	// Work is the predicted host work of one DPU's launch in
	// multiply-accumulates (0: unknown, predicted from the DPU count
	// alone); it decides whether the wave fans out (fansOut).
	Work int64
	// Stats, if non-nil, receives the launch statistics. Its PerDPU
	// backing array is reused across waves when capacity allows.
	Stats *LaunchStats

	// Scatter names the input symbol; In holds one equal-length buffer
	// per participating DPU, In[i] for DPU Start+i, written at the
	// symbol's base. A zero Scatter ref with no In skips the phase.
	Scatter SymbolRef
	In      [][]byte

	// Gather names the output symbol; Out holds one equal-length buffer
	// per participating DPU, read from the symbol's base. A zero Gather
	// ref with no Out skips the phase.
	Gather SymbolRef
	Out    [][]byte

	// Visit, when set, makes the gather an in-place walk instead of Out:
	// on DPU Start+i it gets the page runs of Rows rows of RowBytes bytes
	// (a multiple of 8) at the base of the MRAM symbol Gather as
	// a gather's dpu.Xfer passes them, row first+r at block[r*blockStride],
	// in row order, one run at a time per DPU (distinct DPUs concurrently
	// on the worker pool), under the DPU's lock: it must not retain or
	// write block, nor call a DPU or System method. A DPU that failed
	// an earlier phase, or whose gather faults, is not visited.
	Visit          func(i, first, count int, block []byte, blockStride int)
	Rows, RowBytes int

	// off is the transfer offset within Scatter and Gather (a push's or
	// a gather's; a wave's is 0). bcast, when set, is scattered to every
	// DPU of the request in place of In (CopyToSymbolRef, CopyToDPURef).
	// fill makes the scatter ScatterRows' in-place write of Rows rows on
	// the first filled DPUs (zero rows on the rest), instead of In.
	off    int64
	bcast  []byte
	fill   func(i, first, count int, block []byte, blockStride int)
	filled int
}

// RunWave runs one fused wave. It is best-effort per DPU: a DPU that
// fails in any phase is reported in the returned *FaultReport (its Out
// buffer is not written), while every other DPU completes its full
// scatter→launch→gather and is charged normally. A malformed wave — a
// width, buffer set, tasklet count or nil kernel the launch would
// reject — is a total failure: nothing runs, nothing is charged. Like
// the other synchronous System methods it is not safe for concurrent
// use with itself, unless on one DPU (ParallelFor); it may run beside
// synchronous transfers on other symbols (its runner is its own).
func (s *System) RunWave(w Wave) error {
	phases := dpu.Launched
	if w.Scatter.valid() || w.In != nil {
		phases |= dpu.Scattered
	}
	if w.Gather.valid() || w.Out != nil {
		phases |= dpu.Gathered
	}
	_, err := s.waves.do("wave", w, phases)
	return err
}

// phaseRunner is the host's one best-effort loop. On each of the
// request's DPUs it runs the phases the request asks for — scatter,
// launch, gather, in that order — stopping that DPU at its first
// failure (step). phase records how far each DPU got, so the run
// charges exactly what ran: the busiest rank's share of each transfer
// over the DPUs that moved bytes (tallyRanks), the slowest DPU that
// completed for the launch. Fan-out: a launch goes to the worker pool
// when its predicted host work, DPUs × (dpuHostWork + Work), reaches
// fanOutWork, and runs on the caller below it (the launch timings on
// the constants chose them); a move with no launch fans out from
// parallelThreshold DPUs; a WRAM broadcast, a parameter block a pool
// dispatch would cost more than, runs on the caller, and an MRAM one is
// one dpu.MRAMBroadcast.Write. A System holds two: waves serves
// RunWave, calls the synchronous transfers and launches, so a wave may
// run beside a transfer on another symbol. A one-DPU request uses no
// runner scratch (do).
type phaseRunner struct {
	s *System
	// The current request. It lives in the runner, and run is loop
	// bound once at NewSystem, so the fan-out captures nothing per call:
	// a per-call closure would be heap-allocated on every transfer.
	w      Wave
	phases uint8
	per    []dpu.Stats
	run    func(lo, hi int)

	errs  []error
	phase []uint8
	tally []int
}

// do validates the request w, runs its phases on its DPUs and charges
// it in the order of the discrete calls: scatter, launch, gather. A
// malformed request is an ordinary error: nothing runs, nothing is
// charged. op names the call in a *FaultReport.
func (r *phaseRunner) do(op string, w Wave, phases uint8) (LaunchStats, error) {
	s := r.s
	n := w.DPUs
	if n < 1 || w.Start < 0 || w.Start > len(s.dpus)-n {
		return LaunchStats{}, fmt.Errorf("host: %s on %d DPUs from DPU %d, system has %d", op, n, w.Start, len(s.dpus))
	}
	launch := phases&dpu.Launched != 0
	if launch && w.Kernel == nil {
		return LaunchStats{}, fmt.Errorf("host: %s with a nil kernel", op)
	}
	if launch && (w.Tasklets < 1 || w.Tasklets > dpu.MaxTasklets) {
		return LaunchStats{}, fmt.Errorf("host: %s tasklet count %d outside 1..%d", op, w.Tasklets, dpu.MaxTasklets)
	}
	var inLen, outLen int
	var err error
	switch {
	case w.bcast != nil:
		inLen, err = len(w.bcast), checkRef(w.Scatter, w.off, len(w.bcast))
	case w.fill != nil:
		inLen, err = rowsLen(op, w.Scatter, w.Rows, w.RowBytes)
	case phases&dpu.Scattered != 0:
		inLen, err = phaseLen(op, w.Scatter, w.off, w.In, n)
	}
	if phases&dpu.Gathered != 0 && err == nil {
		if w.Visit != nil {
			outLen, err = rowsLen(op, w.Gather, w.Rows, w.RowBytes)
		} else {
			outLen, err = phaseLen(op, w.Gather, w.off, w.Out, n)
		}
	}
	if err != nil {
		return LaunchStats{}, err
	}

	// Per-DPU stats land in the caller's PerDPU backing when it is large
	// enough; it survives partial failures, so stale entries are cleared
	// first.
	var per []dpu.Stats
	if launch && w.Stats != nil && cap(w.Stats.PerDPU) >= n {
		per = w.Stats.PerDPU[:n]
		clear(per)
	} else if launch {
		per = make([]dpu.Stats, n)
	}
	var errs []error
	var phase []uint8
	if n == 1 {
		// A one-DPU request runs on the caller and keeps its outcome on
		// the stack, so it may be issued from any ParallelFor range.
		var err1 [1]error
		var phase1 [1]uint8
		phase1[0], err1[0] = s.step(&w, phases, 0, per)
		errs, phase = err1[:], phase1[:]
	} else {
		r.w, r.phases, r.per = w, phases, per
		r.reset(n)
		switch {
		case w.bcast != nil && w.Scatter.kind == dpu.SymbolMRAM:
			r.broadcastMRAM(w.Scatter.off+w.off, w.bcast)
		case w.bcast != nil, launch && !fansOut(n, w.Work), !launch && n < parallelThreshold:
			r.loop(0, n)
		default:
			s.pool.runAligned(n, s.perRank, r.run)
		}
		r.w, r.per = Wave{}, nil // release buffer and kernel references
		errs, phase = r.errs, r.phase
	}

	if phases&dpu.Scattered != 0 {
		r.chargeXfer(phase, w.Start, dpu.Scattered, inLen, true)
	}
	var ls LaunchStats
	if launch {
		for i := range per {
			if phase[i]&dpu.Launched != 0 {
				ls.Cycles = max(ls.Cycles, per[i].Cycles)
				ls.EnergyJ += per[i].EnergyJ
			}
		}
		ls.PerDPU = per
		ls.Seconds = float64(ls.Cycles) / s.cfg.DPU.FrequencyHz
		ls.Time = time.Duration(ls.Seconds * float64(time.Second))
		if w.Stats != nil {
			*w.Stats = ls
		}
		s.mu.Lock()
		s.dpuTime += ls.Time
		s.mu.Unlock()
	}
	if phases&dpu.Gathered != 0 {
		r.chargeXfer(phase, w.Start, dpu.Gathered, outLen, false)
	}
	return ls, s.noteFaults(faultsFrom(op, w.Start, errs))
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

// rowsLen validates an in-place gather or a ScatterRows request and
// returns its per-DPU length.
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

// loop runs the current request on its DPUs [lo, hi), counted from its
// first.
func (r *phaseRunner) loop(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.phase[i], r.errs[i] = r.s.step(&r.w, r.phases, i, r.per)
	}
}

// step runs the phases of request w on its DPU i, counted from its
// first, as one dpu.Request, and returns how far it got (Do's phase
// bits) and its first failure. per, for a launch, receives the stats.
func (s *System) step(w *Wave, phases uint8, i int, per []dpu.Stats) (uint8, error) {
	var req dpu.Request
	if phases&dpu.Scattered != 0 {
		req.Scatter = dpu.Xfer{Kind: w.Scatter.kind, Off: w.Scatter.off + w.off, Buf: w.bcast, Rows: w.Rows, RowBytes: w.RowBytes}
		switch {
		case w.fill != nil:
			req.Scatter.Visit = func(first, count int, block []byte, blockStride int) {
				if i < w.filled {
					w.fill(i, first, count, block, blockStride)
				} else {
					clear(block)
				}
			}
		case w.bcast == nil:
			req.Scatter.Buf = w.In[i]
		}
	}
	if phases&dpu.Launched != 0 {
		req.Tasklets, req.Kernel, req.Stats = w.Tasklets, w.Kernel, &per[i]
	}
	if phases&dpu.Gathered != 0 {
		req.Gather = dpu.Xfer{Kind: w.Gather.kind, Off: w.Gather.off + w.off, Rows: w.Rows, RowBytes: w.RowBytes}
		if w.Visit == nil {
			req.Gather.Buf = w.Out[i]
		} else {
			req.Gather.Visit = func(first, count int, block []byte, blockStride int) { w.Visit(i, first, count, block, blockStride) }
		}
	}
	return s.dpus[w.Start+i].Do(&req)
}

// broadcastMRAM is the scatter phase of an MRAM broadcast: one
// dpu.MRAMBroadcast.Write, which draws each DPU's fault itself.
func (r *phaseRunner) broadcastMRAM(off int64, data []byte) {
	s := r.s
	s.bcast.Write(s.dpus[r.w.Start:][:len(r.errs)], off, data, s.ParallelFor, r.errs)
	for i, err := range r.errs {
		if err == nil {
			r.phase[i] = dpu.Scattered
		}
	}
}

// chargeXfer charges one transfer API call of perDPU bytes to each DPU
// of a request from DPU start whose phase has bit set, timed as the
// busiest rank's serial share (topology.go). A phase no DPU completed
// charges nothing.
func (r *phaseRunner) chargeXfer(phase []uint8, start int, bit uint8, perDPU int, toDPU bool) {
	if nOK, busiest := r.tallyRanks(phase, start, bit); nOK > 0 {
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
