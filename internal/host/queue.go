// Asynchronous command engine for a System.
//
// The UPMEM SDK drives multi-rank workloads through per-rank command
// queues: dpu_launch(DPU_ASYNCHRONOUS) and the async transfer variants
// enqueue work and return immediately, errors are captured when the host
// calls dpu_sync. This file mirrors that shape for the simulated System:
// Enqueue{CopyTo,PushXfer,Launch,Gather,CopyFrom,Wave} append a command
// to a FIFO queue drained by a dedicated executor goroutine, each returns
// a Pending handle, and Sync waits for the queue to drain and reports the
// first failure.
//
// Two clocks, one invariant: every queued command is executed by the
// same synchronous System method a direct call would use, so the
// simulated accounting (DPU cycles, launch stats, trace profile) is
// bit-identical whether a workload runs synchronously or queued — the
// queue only changes which real-time instant the work happens at, which
// is exactly the wall-clock overlap the async API exists to buy.
//
// Ordering guarantees: commands on one System execute strictly in
// enqueue order, one at a time. That serialization is what makes it safe
// for several runners (e.g. a GEMM and an eBNN runner sharing a System)
// to enqueue concurrently: their launches never overlap on the DPUs.
//
// Failures come in two tiers, mirroring the synchronous best-effort
// contract (fault.go). A partial failure (*FaultReport: some DPUs
// failed, the rest completed and were charged) does NOT poison the
// queue — later commands still execute, and the report is delivered to
// the first Wait on its command, or to the next Sync whose target
// covers it, whichever comes first. A total failure (validation error:
// nothing ran) is sticky: later queued commands are skipped (their
// Pending handles report the same error) until a Sync whose target
// covers the failing ticket observes and clears it, matching the SDK's
// sticky async error model. Scoping both tiers to the sync target keeps
// a concurrent producer's Sync from consuming an error that belongs to
// a command enqueued after its sync point.
package host

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/trace"
)

// ErrClosed is reported by Pending handles and Sync for commands that
// were still queued (or enqueued) when the System was closed.
var ErrClosed = errors.New("host: system closed")

type opKind uint8

const (
	opCopyTo opKind = iota + 1
	opPushXfer
	opLaunch
	opGather
	opCopyFrom
	opWave
	opCopyToDPU
	opLaunchDPU
)

// queuedFault records one command's partial-failure report until its
// Wait or a covering Sync claims it.
type queuedFault struct {
	ticket uint64
	err    error
}

// asyncOp is one queued command. A single fat struct keeps the ring
// buffer allocation-free: enqueueing reuses ring slots instead of boxing
// per-kind payloads.
type asyncOp struct {
	kind   opKind
	ticket uint64

	// Scatter-side arguments (opCopyTo data, opPushXfer/opGather bufs,
	// opCopyFrom dst via data, opWave scatter).
	ref  SymbolRef
	off  int64
	data []byte
	bufs [][]byte

	// n is the per-DPU byte count for opGather, the DPU index for
	// opCopyFrom/opCopyToDPU/opLaunchDPU, and the DPU count for
	// opLaunch/opWave.
	n        int
	tasklets int
	kernel   dpu.KernelFunc
	stats    *LaunchStats

	// Gather-side arguments for opWave.
	gref  SymbolRef
	goff  int64
	gbufs [][]byte

	// enqNS is the wall-clock enqueue instant (UnixNano) when telemetry
	// or tracing is wired, 0 otherwise; the executor observes the
	// command latency.
	enqNS int64

	// sp, when non-nil, is the request span this command belongs to
	// (captured from System.qspan at enqueue time); the executor stamps
	// a child span around the command's execution window.
	sp *trace.Span
}

// Pending is a future-style handle for one enqueued command. The zero
// value is a resolved no-op.
type Pending struct {
	s      *System
	ticket uint64
}

// Wait blocks until the command has executed or been skipped. It
// returns nil for commands that completed, the command's own
// *FaultReport if it failed partially (delivered to the first Wait,
// then cleared — a later Sync sees nil), and the sticky queue error for
// a totally-failed command and every command skipped after it. Unlike
// Sync, Wait never clears the sticky error.
func (p Pending) Wait() error {
	s := p.s
	if s == nil {
		return nil
	}
	s.qmu.Lock()
	for s.qDone < p.ticket {
		s.qcond.Wait()
	}
	var err error
	if s.qErr != nil && s.qErrTicket <= p.ticket {
		err = s.qErr
	} else {
		for i, f := range s.qFaults {
			if f.ticket == p.ticket {
				err = f.err
				s.qFaults = append(s.qFaults[:i], s.qFaults[i+1:]...)
				break
			}
		}
	}
	s.qmu.Unlock()
	return err
}

// Done reports whether the command has executed (or been skipped)
// without blocking.
func (p Pending) Done() bool {
	s := p.s
	if s == nil {
		return true
	}
	s.qmu.Lock()
	done := s.qDone >= p.ticket
	s.qmu.Unlock()
	return done
}

// Sync waits until every command enqueued before the call has executed
// (dpu_sync), returns the earliest unclaimed error among them, and
// clears every error in that range so the queue accepts new work.
// Errors of commands enqueued after the Sync snapshot — a concurrent
// producer's — are left for that producer's own Wait or Sync.
func (s *System) Sync() error {
	s.qmu.Lock()
	target := s.qNext
	for s.qDone < target {
		s.qcond.Wait()
	}
	var err error
	var errTicket uint64
	if s.qErr != nil && s.qErrTicket <= target {
		err, errTicket = s.qErr, s.qErrTicket
		s.qErr, s.qErrTicket = nil, 0
	}
	// Claim the partial-failure reports in range; the earliest one wins
	// if it precedes the sticky error (the rest are dropped, matching
	// the first-error contract).
	kept := s.qFaults[:0]
	for _, f := range s.qFaults {
		if f.ticket > target {
			kept = append(kept, f)
			continue
		}
		if err == nil || f.ticket < errTicket {
			err, errTicket = f.err, f.ticket
		}
	}
	s.qFaults = kept
	s.qmu.Unlock()
	return err
}

// EnqueueCopyTo queues a broadcast of data to the referenced symbol on
// every DPU (async dpu_copy_to). The caller must not modify data until
// the command has executed.
func (s *System) EnqueueCopyTo(ref SymbolRef, offset int64, data []byte) Pending {
	return s.enqueue(asyncOp{kind: opCopyTo, ref: ref, off: offset, data: data})
}

// EnqueuePushXfer queues a scatter of buffers[i] to DPU i (async
// dpu_push_xfer). Like PushXferRef it requires one equal-length buffer
// per DPU; the buffers must stay untouched until the command executes.
func (s *System) EnqueuePushXfer(ref SymbolRef, offset int64, buffers [][]byte) Pending {
	return s.enqueue(asyncOp{kind: opPushXfer, ref: ref, off: offset, bufs: buffers})
}

// EnqueueGather queues a gather of n bytes per DPU into dst, which names
// one buffer for each of the first len(dst) DPUs. The buffers are only
// valid to read after Wait/Sync.
func (s *System) EnqueueGather(ref SymbolRef, offset int64, n int, dst [][]byte) Pending {
	return s.enqueue(asyncOp{kind: opGather, ref: ref, off: offset, n: n, bufs: dst})
}

// EnqueueCopyFrom queues a read of len(dst) bytes from one DPU's symbol
// into dst, valid after Wait/Sync.
func (s *System) EnqueueCopyFrom(dpuIdx int, ref SymbolRef, offset int64, dst []byte) Pending {
	return s.enqueue(asyncOp{kind: opCopyFrom, ref: ref, off: offset, n: dpuIdx, data: dst})
}

// EnqueueCopyToDPU queues a write of data to one DPU's symbol (the
// async CopyToDPURef). Pipelined runners use it to re-dispatch a failed
// DPU's inputs onto a surviving DPU without breaking queue ordering.
func (s *System) EnqueueCopyToDPU(dpuIdx int, ref SymbolRef, offset int64, data []byte) Pending {
	return s.enqueue(asyncOp{kind: opCopyToDPU, ref: ref, off: offset, n: dpuIdx, data: data})
}

// EnqueueLaunchDPU queues a kernel launch on the single DPU at dpuIdx
// (the async LaunchDPU), the launch half of a queued re-dispatch.
func (s *System) EnqueueLaunchDPU(dpuIdx, tasklets int, kernel dpu.KernelFunc, stats *LaunchStats) Pending {
	return s.enqueue(asyncOp{kind: opLaunchDPU, n: dpuIdx, tasklets: tasklets, kernel: kernel, stats: stats})
}

// EnqueueLaunch queues a kernel launch on the first n DPUs. If stats is
// non-nil, the launch statistics are stored through it before the
// command's Pending resolves.
func (s *System) EnqueueLaunch(n, tasklets int, kernel dpu.KernelFunc, stats *LaunchStats) Pending {
	return s.enqueue(asyncOp{kind: opLaunch, n: n, tasklets: tasklets, kernel: kernel, stats: stats})
}

// Wave is one fused scatter→launch→gather command — the per-wave unit
// of the execution engine, run on the calling goroutine by RunWave or
// queued by EnqueueWave. Its three phases are interleaved per DPU
// (scatter DPU i, launch DPU i, gather DPU i) instead of sweeping all
// DPUs per phase — each DPU's staging buffers and memory stay cache-hot
// across its three touches, and on the worker pool no barrier separates
// the phases. The simulated accounting is phase-granular exactly like
// the discrete commands: one transfer charge for the scatter, one launch
// (max-over-DPUs cycles into Stats), one transfer charge for the gather.
type Wave struct {
	// DPUs is the launch width: the wave runs on the first DPUs DPUs.
	DPUs     int
	Tasklets int
	Kernel   dpu.KernelFunc
	// Stats, if non-nil, receives the launch statistics. Its PerDPU
	// backing array is reused across waves when capacity allows.
	Stats *LaunchStats

	// Scatter names the input symbol; In holds one equal-length buffer
	// per participating DPU. A zero Scatter ref skips the phase.
	Scatter    SymbolRef
	ScatterOff int64
	In         [][]byte

	// Gather names the output symbol; Out holds one equal-length buffer
	// per participating DPU. A zero Gather ref skips the phase.
	Gather    SymbolRef
	GatherOff int64
	Out       [][]byte
}

// EnqueueWave queues a fused scatter→launch→gather wave. All referenced
// buffers belong to the queue until the command executes. The wave is
// best-effort per DPU: a DPU that fails in any phase is reported in the
// command's *FaultReport (its Out buffer is not written), while every
// other DPU completes its full scatter→launch→gather and is charged
// normally.
func (s *System) EnqueueWave(w Wave) Pending {
	return s.enqueue(w.op())
}

// RunWave runs the same fused wave on the calling goroutine, outside the
// command queue: the same validation, best-effort per-DPU contract,
// charges and *FaultReport as EnqueueWave(w).Wait(), with no handoff.
// Like the other synchronous System methods it is not safe for
// concurrent use with itself; it may run beside the queue executor (its
// scratch is its own), the caller keeping the two off the same symbols.
func (s *System) RunWave(w Wave) error {
	// The command lives in a System field, not a local: execWave's range
	// function captures it, and a captured local would be heap-allocated
	// on every wave.
	s.rcur = w.op()
	err := s.execWave(&s.rcur, &s.rwave)
	s.rcur = asyncOp{} // release buffer/kernel references
	return err
}

func (w *Wave) op() asyncOp {
	return asyncOp{
		kind: opWave, n: w.DPUs, tasklets: w.Tasklets, kernel: w.Kernel, stats: w.Stats,
		ref: w.Scatter, off: w.ScatterOff, bufs: w.In,
		gref: w.Gather, goff: w.GatherOff, gbufs: w.Out,
	}
}

// enqueue appends op to the ring and wakes (or starts) the executor.
func (s *System) enqueue(op asyncOp) Pending {
	if s.met != nil {
		op.enqNS = time.Now().UnixNano()
	}
	s.qmu.Lock()
	if s.qspan != nil {
		op.sp = s.qspan
		if op.enqNS == 0 {
			op.enqNS = time.Now().UnixNano()
		}
	}
	s.qNext++
	op.ticket = s.qNext
	if s.qClosed {
		// The queue is gone; resolve immediately with the sticky error.
		s.qDone = op.ticket
		if s.qErr == nil {
			s.qErr = ErrClosed
			s.qErrTicket = op.ticket
		}
		s.qmu.Unlock()
		s.qcond.Broadcast()
		return Pending{s: s, ticket: op.ticket}
	}
	s.qpush(op)
	s.meterQueueDepth()
	if !s.qRunning {
		s.qRunning = true
		go s.qrunFn()
	}
	t := op.ticket
	s.qmu.Unlock()
	s.qcond.Broadcast()
	return Pending{s: s, ticket: t}
}

func (s *System) qpush(op asyncOp) {
	if s.qcount == len(s.qring) {
		grown := make([]asyncOp, max(8, 2*len(s.qring)))
		for i := 0; i < s.qcount; i++ {
			grown[i] = s.qring[(s.qhead+i)%len(s.qring)]
		}
		s.qring = grown
		s.qhead = 0
	}
	s.qring[(s.qhead+s.qcount)%len(s.qring)] = op
	s.qcount++
}

func (s *System) qpop() asyncOp {
	op := s.qring[s.qhead]
	// Zero the slot so the ring doesn't pin kernel closures and staging
	// buffers past their command.
	s.qring[s.qhead] = asyncOp{}
	s.qhead = (s.qhead + 1) % len(s.qring)
	s.qcount--
	return op
}

// qrun is the executor: it drains the ring in FIFO order and exits when
// the ring empties. Exiting (rather than parking) keeps an idle System
// free of goroutines that reference it, so the Close finalizer of a
// dropped System can still fire; enqueue restarts the executor on the
// next burst.
func (s *System) qrun() {
	s.qmu.Lock()
	for {
		if s.qcount == 0 {
			s.qRunning = false
			s.qmu.Unlock()
			s.qcond.Broadcast()
			return
		}
		s.qcur = s.qpop()
		s.meterQueueDepth()
		ticket := s.qcur.ticket
		enqNS := s.qcur.enqNS
		skip := s.qErr != nil || s.qClosed
		s.qmu.Unlock()
		var err error
		if !skip {
			if s.qcur.sp != nil {
				t0 := time.Now()
				err = s.execOp(&s.qcur)
				s.traceOp(&s.qcur, t0)
			} else {
				err = s.execOp(&s.qcur)
			}
		}
		s.meterCmdLatency(enqNS)
		s.qcur = asyncOp{} // release buffer/kernel references
		s.qmu.Lock()
		switch {
		case err == nil:
			if skip && s.qErr == nil {
				// Only reachable when Close raced in with commands still
				// queued: fail them rather than touching closed workers.
				s.qErr, s.qErrTicket = ErrClosed, ticket
			}
		case isFaultReport(err):
			// Partial failure: the command ran best-effort and was
			// charged for what completed. Record the report for its
			// Wait/Sync without poisoning the queue, so retry commands
			// the producer enqueues afterwards still execute.
			s.qFaults = append(s.qFaults, queuedFault{ticket: ticket, err: err})
		default:
			if s.qErr == nil {
				s.qErr, s.qErrTicket = err, ticket
			}
		}
		s.qDone = ticket
		s.qcond.Broadcast()
	}
}

func (s *System) execOp(op *asyncOp) error {
	switch op.kind {
	case opCopyTo:
		return s.CopyToSymbolRef(op.ref, op.off, op.data)
	case opPushXfer:
		return s.PushXferRef(op.ref, op.off, op.bufs)
	case opGather:
		return s.GatherXferRefInto(op.ref, op.off, op.n, op.bufs)
	case opCopyFrom:
		return s.CopyFromDPURefInto(op.n, op.ref, op.off, op.data)
	case opLaunch:
		ls, err := s.LaunchOn(op.n, op.tasklets, op.kernel)
		if op.stats != nil && !isTotalError(err) {
			*op.stats = ls
		}
		return err
	case opCopyToDPU:
		return s.CopyToDPURef(op.n, op.ref, op.off, op.data)
	case opLaunchDPU:
		ls, err := s.LaunchDPU(op.n, op.tasklets, op.kernel)
		if err != nil {
			return err
		}
		if op.stats != nil {
			*op.stats = ls
		}
		return nil
	case opWave:
		return s.execWave(op, &s.qwave)
	}
	return fmt.Errorf("host: unknown async command kind %d", op.kind)
}

// waveScratch is one wave caller's reusable per-DPU (errs, phase) and
// per-rank (tally) scratch. The queue executor and RunWave each own one.
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
// discrete command sequence would fail.
func (s *System) execWave(op *asyncOp, sc *waveScratch) error {
	n := op.n
	if n < 1 || n > len(s.dpus) {
		return fmt.Errorf("host: wave on %d DPUs, system has %d", n, len(s.dpus))
	}
	scatter := op.ref.valid()
	var inLen int
	if scatter {
		if len(op.bufs) != n {
			return fmt.Errorf("host: wave scatter got %d buffers for %d DPUs", len(op.bufs), n)
		}
		inLen = len(op.bufs[0])
		for i, b := range op.bufs {
			if len(b) != inLen {
				return fmt.Errorf("host: wave scatter buffer %d has length %d, want %d", i, len(b), inLen)
			}
		}
		if err := checkRef(op.ref, op.off, inLen); err != nil {
			return err
		}
	}
	gather := op.gref.valid()
	var outLen int
	if gather {
		if len(op.gbufs) != n {
			return fmt.Errorf("host: wave gather got %d buffers for %d DPUs", len(op.gbufs), n)
		}
		outLen = len(op.gbufs[0])
		for i, b := range op.gbufs {
			if len(b) != outLen {
				return fmt.Errorf("host: wave gather buffer %d has length %d, want %d", i, len(b), outLen)
			}
		}
		if err := checkRef(op.gref, op.goff, outLen); err != nil {
			return err
		}
	}
	// Per-DPU stats land in the caller's PerDPU backing array when it is
	// large enough, so steady-state waves don't allocate it per call.
	// The backing array is reused across waves and now survives partial
	// failures, so stale entries must be cleared before the run.
	var per []dpu.Stats
	if op.stats != nil && cap(op.stats.PerDPU) >= n {
		per = op.stats.PerDPU[:n]
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
				if err := s.copyToOne(i, op.ref, op.off, op.bufs[i]); err != nil {
					errs[i] = err
					continue
				}
				phase[i] |= waveScattered
			}
			if err := s.dpus[i].LaunchInto(op.tasklets, op.kernel, &per[i]); err != nil {
				errs[i] = err
				continue
			}
			phase[i] |= waveLaunched
			if gather {
				if err := s.copyFromOneInto(i, op.gref, op.goff, op.gbufs[i]); err != nil {
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
	// Charge in the same order as the discrete command sequence the wave
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
	if op.stats != nil {
		*op.stats = LaunchStats{PerDPU: per, Cycles: maxCycles, Seconds: sec, Time: lt, EnergyJ: energy}
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

// PipelineMode selects a runner's dispatch depth: 2 double-buffers waves
// through the async queue (EnqueueWave), 1 runs each wave to completion
// on the caller (RunWave). It is the same fused wave either way, so both
// depths produce identical results and identical simulated accounting.
type PipelineMode int

const (
	// PipelineAuto pipelines when more than one CPU is available to
	// overlap host staging with queued device work; on a single CPU the
	// overlap cannot pay for the handoff, so runners stay at depth 1.
	PipelineAuto PipelineMode = iota
	PipelineOn
	PipelineOff
)

// Enabled resolves the mode against the running machine.
func (m PipelineMode) Enabled() bool {
	switch m {
	case PipelineOn:
		return true
	case PipelineOff:
		return false
	default:
		return runtime.GOMAXPROCS(0) > 1
	}
}
