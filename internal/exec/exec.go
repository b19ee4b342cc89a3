// Package exec is the workload-agnostic execution engine for the DPU
// system: one scheduler owning the thesis's host/DPU dispatch pattern
// (§3.2, Fig 4.6) — shard work across DPUs, scatter inputs, launch the
// kernel, gather results — plus retry-and-remap of failed shards onto
// surviving DPUs under fault injection.
//
// Workloads adapt to the engine through the WorkSet interface: gemm
// row-per-DPU, ebnn images-per-DPU, and the gemm image-per-DPU batch,
// whose streams are produced and consumed in place in MRAM (Stream's
// in-place form). Every WorkSet runs through one wave loop (Engine.run)
// over one wave primitive, the host's fused scatter→launch→gather wave
// (host.System.RunWave), one wave at a time on the caller: each wave is
// encoded, run, re-dispatched where it failed and decoded before the
// next is encoded. A System serves one dispatching engine at a time.
//
// See DESIGN.md, "Execution engine", for the interface contract,
// accounting, and retry semantics.
package exec

import (
	"errors"
	"fmt"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/trace"
)

// Config and its Pipeline field are ignored by New: the engine runs one
// wave at a time. They exist only so bench/ compiles.
type Config struct{ Pipeline host.PipelineMode }

// Stats describes one dispatched work set — the single accounting
// struct produced by the engine for every workload.
type Stats struct {
	// Waves is the number of sequential launches (shards beyond the DPU
	// count queue into later waves).
	Waves int
	// DPUsUsed is the largest number of DPUs active in a wave — the
	// thesis's dynamic DPU count.
	DPUsUsed int
	// Cycles is the summed per-wave maximum DPU cycles, plus the real
	// cycles of any re-dispatched shards.
	Cycles uint64
	// Seconds is Cycles through the DPU clock.
	Seconds float64
	// Retries is the number of shards (rows, images, or batches)
	// re-dispatched onto a surviving DPU after a fault. Zero in a
	// fault-free run.
	Retries int
	// Tasklets is the per-DPU tasklet count the dispatch launched with —
	// recorded so mapping-aware callers (the auto-mapper's calibration
	// loop) can report the executed choice next to the simulated time.
	Tasklets int
	// PredictedSeconds is the planner's analytic latency for the
	// dispatch, set by a runner that planned it (zero otherwise);
	// comparing it against Seconds is the calibration loop.
	PredictedSeconds float64
}

// Stream names one per-shard transfer stream, in one of two forms.
// Bufs[i] is DPU i's buffer: a wave's primary scatter stream and its
// gather stream move Bufs[:n], one equal-length buffer per wave shard,
// inside the fused wave; a workset's later scatter streams are pushed
// on their own and cover every DPU of the system (matching
// dpu_push_xfer). A stream starts at its symbol's base, and a
// re-dispatch moves the shard's own buffers, Bufs[i], the same way on
// its retry target. No stream is weight-resident: the only resident
// payload is a Broadcast.
//
// In place (Run set, Bufs nil), the primary scatter stream or the
// gather stream is Rows rows of RowBytes bytes (a multiple of 8) at the
// MRAM symbol's base, which Run writes (scatter) or reads (gather) in
// DPU i's memory: run(i, first, count, block, blockStride) covers rows
// [first, first+count), row first+r at block[r*blockStride] (every row
// at block[0:] when a gather's blockStride is 0). An in-place scatter
// is pushed ahead of the wave to every DPU (host.System.ScatterRows:
// zero rows beyond the wave); an in-place gather rides in the wave
// (host.Wave's Visit). A shard's runs cover its rows in order, never
// overlapping in time: a scatter's once per wave (not at all on a DPU
// whose transfer failed) and again, as one run into a buffer made on
// the first failure, per re-dispatch; a gather's once per dispatch, as
// one run from such a buffer when re-dispatched, never from a DPU whose
// shard was already failed when the wave launched. Distinct shards'
// runs may be concurrent, so Run may touch only per-shard state, and
// it runs under the DPU's lock, so it may not call a DPU or System
// method. It may not retain block, nor a gather's Run write it.
type Stream struct {
	Ref  host.SymbolRef
	Bufs [][]byte

	Rows, RowBytes int
	Run            func(i, first, count int, block []byte, blockStride int)
}

// Broadcast is a wave-invariant payload delivered to every DPU before
// dispatch (a weight matrix, a parameter block, a model). DPUs that
// miss a broadcast get it redelivered; unreachable DPUs are marked down
// so a stale copy never contributes results.
//
// A non-nil Resident entry makes the broadcast weight-resident: the
// engine skips delivery for DPUs whose generation stamp is current and
// catches up only the stale ones (zero transfer bytes on a warm
// repeat).
type Broadcast struct {
	Ref      host.SymbolRef
	Off      int64
	Data     []byte
	Resident *ResidentEntry
}

// WorkSet adapts one workload's shard mapping to the engine's wave
// dispatch. A workset is Shards() shards, at most one per DPU per wave;
// the engine plans waves of consecutive shards, has the workset encode
// each wave into per-DPU staging buffers, issues it as one fused
// scatter → launch → gather wave, re-dispatches failed shards onto
// survivors, and hands every shard back through Decode in input order.
//
// slot is the staging-slot index, always 0: one wave is issued at a
// time, and its buffers belong to it from Encode until the engine has
// decoded it.
type WorkSet interface {
	// Shards is the total number of shards to dispatch.
	Shards() int
	// Tasklets is the per-DPU tasklet count for launches.
	Tasklets() int
	// Kernel is the DPU program run on every shard.
	Kernel() dpu.KernelFunc
	// Broadcasts returns the payloads delivered to every DPU before the
	// first wave (nil when the workload broadcast at setup time).
	Broadcasts() []Broadcast
	// Encode stages shards [start, start+n) into the slot's buffers.
	Encode(slot, start, n int)
	// Scatter returns the slot's input streams for an n-shard wave.
	// Stream 0 is the primary stream (fused into the wave command
	// unless it is in place); later streams are pushed separately,
	// ahead of it. Returned slices are read immediately and may be
	// reused by the next call.
	Scatter(slot, n int) []Stream
	// Gather returns the slot's output stream for an n-shard wave; its
	// first n buffers share one length.
	Gather(slot, n int) Stream
	// Decode consumes shard start+i (wave position i) from the slot's
	// gather buffer. Called for every shard of a wave in input order,
	// after the wave and any re-dispatches completed.
	Decode(slot, shard, i int)
}

// Worker is an optional WorkSet method: Work predicts the host work of
// one shard's launch in multiply-accumulates, which decides whether a
// wave fans out over the host's worker pool (host.Wave's Work). A set
// without it is predicted from its wave's DPU count alone.
type Worker interface {
	Work() int64
}

// maxRedispatch bounds how many targets one shard (or one broadcast
// redelivery) tries before the fault is reported as fatal.
const maxRedispatch = 8

// Engine owns shard dispatch for one runner. It is not safe for
// concurrent use: the DPU symbols it scatters into are shared state.
type Engine struct {
	sys *host.System

	// Telemetry: instruments resolved from the System's registry at
	// New and the current per-layer scope label (metrics.go).
	// Nil/empty when telemetry is off; dispatch results never depend on
	// them.
	met   *engineMetrics
	scope string

	// Request tracing (trace.go): the span dispatches attach their
	// phase/launch child spans to, nil when the current work is not
	// traced, plus the launch-stats scratch the span recorder reads
	// (copied by value at the call site so LaunchStats locals never
	// escape to the heap).
	tsp     *trace.Span
	tspLS   host.LaunchStats
	tspLSOK bool

	// Fault-recovery state: DPUs excluded from dispatch for the
	// engine's life, the round-robin re-dispatch cursor, and the
	// reusable per-wave failed-shard set.
	down     []bool
	nDown    int
	retryCur int
	failSet  []bool

	// The engine-global wave number (trace spans) and the launch
	// statistics of the current wave and of the current re-dispatch:
	// each is read for its scalar aggregates before the next reuses its
	// PerDPU backing.
	waveSeq int
	waveLS  host.LaunchStats
	retryLS host.LaunchStats
}

// New builds an engine over sys, with telemetry when sys has a metrics
// registry wired. One engine per runner: down-DPU state is scoped to the
// broadcasts that runner has delivered.
func New(sys *host.System, _ Config) *Engine {
	e := &Engine{sys: sys, down: make([]bool, sys.NumDPUs()), failSet: make([]bool, sys.NumDPUs())}
	if reg := sys.MetricsRegistry(); reg != nil {
		e.met = newEngineMetrics(reg)
	}
	return e
}

// Down reports whether DPU i has been excluded from dispatch.
func (e *Engine) Down(i int) bool { return e.down[i] }

// NumDown returns the number of excluded DPUs.
func (e *Engine) NumDown() int { return e.nDown }

// markDown removes DPU i from the re-dispatch target pool for the rest
// of the engine's life. Under a request span it records a zero-length
// "dpu_down" child naming the DPU and the new down count.
func (e *Engine) markDown(i int) {
	if e.down[i] {
		return
	}
	e.down[i] = true
	e.nDown++
	if e.met != nil {
		e.met.down.Set(int64(e.nDown))
	}
	if e.tsp != nil {
		now := time.Now()
		c := e.tsp.StartChildAt("dpu_down", now)
		c.SetAttr("dpu", int64(i))
		c.SetAttr("down_dpus", int64(e.nDown))
		c.EndAt(now)
	}
}

// nextTarget picks the re-dispatch target for a shard that last ran on
// DPU near. On a multi-rank system, surviving DPUs in near's own rank
// are preferred — the shard's input and output move over the rank
// channel already assigned to it, and a whole-rank outage degrades to
// the global path below instead of stalling. The fallback (and the
// entire behavior when the system is a single rank, as every
// pre-topology configuration was) is the original round-robin over all
// survivors, so retried shards spread out. Returns -1 when no DPU
// survives.
func (e *Engine) nextTarget(near int) int {
	nd := e.sys.NumDPUs()
	if e.nDown >= nd {
		return -1
	}
	if e.sys.Ranks() > 1 && near >= 0 && near < nd {
		lo, hi := e.sys.RankSpan(e.sys.RankOf(near))
		for t := 1; t < hi-lo; t++ {
			i := lo + (near-lo+t)%(hi-lo)
			if !e.down[i] {
				return i
			}
		}
	}
	for t := 0; t < nd; t++ {
		i := (e.retryCur + t) % nd
		if !e.down[i] {
			e.retryCur = (i + 1) % nd
			return i
		}
	}
	return -1
}

// seedFailed returns the reusable failed-shard set for an n-shard wave,
// pre-marking shards whose DPU is down: a down DPU holds stale
// broadcast data, so its shard is re-dispatched even when the wave's
// operations report no error for it.
func (e *Engine) seedFailed(n int) []bool {
	failed := e.failSet[:n]
	for i := range failed {
		failed[i] = e.down[i]
	}
	return failed
}

// mergeFailed folds a best-effort operation's *FaultReport into the
// wave's failed-shard set (indices beyond the wave width are ignored: a
// scatter fault on a DPU not launched this wave is harmless). DPUs that
// died leave the re-dispatch pool. A non-report error is returned as
// fatal.
func (e *Engine) mergeFailed(failed []bool, err error) error {
	if err == nil {
		return nil
	}
	rep, ok := host.AsFaultReport(err)
	if !ok {
		return err
	}
	for _, f := range rep.Faults {
		if errors.Is(f.Err, dpu.ErrDPUDead) {
			e.markDown(f.DPU)
		}
		if f.DPU < len(failed) {
			failed[f.DPU] = true
		}
	}
	return nil
}

// Broadcast delivers b to every DPU immediately, with redelivery and
// down-marking on partial failure. Used for setup-time payloads (the
// eBNN model deploy) and for the wave loop's dispatch-time broadcasts.
// A resident broadcast goes through the weight cache's generation
// stamps and is skipped for current DPUs.
func (e *Engine) Broadcast(b Broadcast) error {
	if b.Resident != nil {
		return e.broadcastResident(b)
	}
	return e.broadcastAll(b, nil)
}

// broadcastAll is one rank-parallel broadcast of b to the whole system.
// Every DPU the fault report names that is not already down gets the
// payload redelivered or is marked down, so its stale copy never
// contributes results. A non-nil ent is stamped for every DPU the
// payload reached. A non-report error is fatal.
func (e *Engine) broadcastAll(b Broadcast, ent *ResidentEntry) error {
	var faults []host.DPUFault
	if err := e.sys.CopyToSymbolRef(b.Ref, b.Off, b.Data); err != nil {
		rep, ok := host.AsFaultReport(err)
		if !ok {
			return err
		}
		faults = rep.Faults
	}
	if ent != nil {
		nd := e.sys.NumDPUs()
		for d := 0; d < nd; d++ {
			ent.markDelivered(d)
		}
		for _, f := range faults {
			ent.InvalidateDPU(f.DPU)
		}
		ent.noteDelivered(len(b.Data)*(nd-len(faults)), false)
	}
	for _, f := range faults {
		if !e.down[f.DPU] {
			e.deliverOne(f.DPU, b.Ref, b.Off, b.Data, ent, false)
		}
	}
	return nil
}

// deliverOne pushes one payload to DPU d with bounded retries, stamping
// a non-nil resident entry on success. An unreachable DPU is marked
// down (its stale copy must never contribute results) and reported
// false.
func (e *Engine) deliverOne(d int, ref host.SymbolRef, off int64, data []byte, ent *ResidentEntry, catchup bool) bool {
	for a := 0; a < maxRedispatch; a++ {
		err := e.sys.CopyToDPURef(d, ref, off, data)
		if err == nil {
			if ent != nil {
				ent.markDelivered(d)
				ent.noteDelivered(len(data), catchup)
			}
			return true
		}
		if errors.Is(err, dpu.ErrDPUDead) {
			break
		}
		if _, ok := host.AsFaultReport(err); !ok {
			break
		}
	}
	e.markDown(d)
	return false
}

// broadcastResident delivers a resident broadcast: skipped outright
// when every live DPU is stamped current (a warm repeat — zero
// transfer bytes), one full-system broadcast when none are (first
// delivery), per-DPU catch-ups otherwise (remapped or recovered DPUs).
func (e *Engine) broadcastResident(b Broadcast) error {
	ent := b.Resident
	ent.Touch()
	nd := e.sys.NumDPUs()
	stale, live := 0, 0
	for d := 0; d < nd; d++ {
		if e.down[d] {
			continue
		}
		live++
		if !ent.Current(d) {
			stale++
		}
	}
	if live == 0 || stale == 0 {
		ent.noteHit()
		return nil
	}
	ent.noteMiss()
	if stale == live && e.nDown == 0 {
		// Cold path: the same full-system broadcast a non-resident
		// payload gets, stamping every DPU it reaches.
		return e.broadcastAll(b, ent)
	}
	for d := 0; d < nd; d++ {
		if e.down[d] || ent.Current(d) {
			continue
		}
		e.deliverOne(d, b.Ref, b.Off, b.Data, ent, true)
	}
	return nil
}

// redispatch re-runs the failed shard of wave position i, which ran on
// DPU i, on a surviving DPU — one in DPU i's rank if any (nextTarget):
// its buffers of the later input streams (Bufs[i] of each) are pushed
// to that DPU, then w — its primary input, the kernel and its output
// gather — runs there as a one-DPU wave, as the wave loop issues them.
// The retry's cycles are added to st, so the stats reflect the degraded
// run's real cost. An attempt stops at its first failed step. A retry
// writes only the shard's own input and output symbols, never the
// weight arena, so no resident stamp goes stale through it: a resident
// payload is a Broadcast, delivered to every live DPU before the launch.
func (e *Engine) redispatch(i int, later []Stream, w host.Wave, st *Stats) error {
	near := i
	w.DPUs, w.Stats = 1, &e.retryLS
	var err error
	for a := 0; a < maxRedispatch; a++ {
		t := e.nextTarget(near)
		if t < 0 {
			return fmt.Errorf("exec: no surviving DPU to re-dispatch onto")
		}
		// A failed attempt moves the scan past its target, like the
		// round-robin cursor always did.
		near = t
		err = nil
		for _, s := range later {
			if err = e.sys.CopyToDPURef(t, s.Ref, 0, s.Bufs[i]); err != nil {
				break
			}
		}
		if err == nil {
			w.Start = t
			err = e.sys.RunWave(w)
		}
		if err == nil {
			st.Retries++
			st.Cycles += e.retryLS.Cycles
			st.Seconds += e.retryLS.Seconds
			return nil
		}
		if errors.Is(err, dpu.ErrDPUDead) {
			e.markDown(t)
			continue
		}
		if _, ok := host.AsFaultReport(err); !ok {
			return err
		}
		// Transient fault: try again, possibly on another target.
	}
	return fmt.Errorf("exec: shard re-dispatch failed %d times: %w", maxRedispatch, err)
}

// Run dispatches every shard of ws. st accumulates: callers zero it (or
// carry it across layers) themselves.
func (e *Engine) Run(ws WorkSet, st *Stats) error {
	pre := *st
	err := e.run(ws, st)
	if e.met != nil {
		e.account(pre, st)
	}
	return err
}

// run is the wave loop, the only one. Per wave of up to one shard per
// DPU: encode it, push the extra scatter streams, run the fused wave,
// fold every partial failure into the failed-shard set, account the
// launch, re-dispatch the failed shards onto survivors, then decode the
// wave in input order.
func (e *Engine) run(ws WorkSet, st *Stats) error {
	// Every broadcast is delivered — redelivered, or its DPU marked
	// down and its shards moved onto survivors — before the first wave
	// is issued, so no DPU computes on stale data.
	for _, b := range ws.Broadcasts() {
		if err := e.Broadcast(b); err != nil {
			return err
		}
	}
	nd := e.sys.NumDPUs()
	total := ws.Shards()
	tasklets := ws.Tasklets()
	st.Tasklets = tasklets
	kernel := ws.Kernel()
	var work int64
	if wk, ok := ws.(Worker); ok {
		work = wk.Work()
	}

	// A re-dispatched shard of an in-place stream is filled into, or
	// delivered from, one buffer made on the first failure.
	var in, out [][]byte
	for start := 0; start < total; start += nd {
		n := min(total-start, nd)
		e.waveSeq++
		ws.Encode(0, start, n)
		streams := ws.Scatter(0, n)
		s0, g := streams[0], ws.Gather(0, n)
		t0 := e.now()
		// Down DPUs hold stale broadcasts: their shards are re-dispatched
		// even when no operation reports an error for them. The later
		// streams, and an in-place primary, are pushed ahead of the wave;
		// a buffered primary rides in it.
		failed := e.seedFailed(n)
		w := host.Wave{DPUs: n, Tasklets: tasklets, Kernel: kernel, Work: work, Stats: &e.waveLS, Gather: g.Ref}
		for si, s := range streams {
			var err error
			switch {
			case si > 0:
				err = e.sys.PushXferRef(s.Ref, 0, s.Bufs)
			case s.Run != nil:
				err = e.sys.ScatterRows(s.Ref, s.Rows, s.RowBytes, n, s.Run)
			default:
				w.Scatter, w.In = s.Ref, s.Bufs[:n]
			}
			if err := e.mergeFailed(failed, err); err != nil {
				return err
			}
		}
		if run := g.Run; run != nil {
			// A shard failed before the launch ran on stale inputs.
			w.Visit, w.Rows, w.RowBytes = func(i, first, count int, block []byte, blockStride int) {
				if !failed[i] {
					run(i, first, count, block, blockStride)
				}
			}, g.Rows, g.RowBytes
		} else {
			w.Out = g.Bufs[:n]
		}
		if err := e.mergeFailed(failed, e.sys.RunWave(w)); err != nil {
			return err
		}
		st.Waves++
		st.Cycles += e.waveLS.Cycles
		st.Seconds += e.waveLS.Seconds
		st.DPUsUsed = max(st.DPUsUsed, n)
		if e.tsp != nil {
			e.tspLS, e.tspLSOK = e.waveLS, true
		}
		t1 := e.span("wave", e.waveSeq, n, t0)
		retried := false
		for i := 0; i < n; i++ {
			if !failed[i] {
				continue
			}
			retried = true
			rw := host.Wave{Tasklets: tasklets, Kernel: kernel, Scatter: s0.Ref, Gather: g.Ref}
			if s0.Run != nil {
				if in == nil {
					in = [][]byte{make([]byte, s0.Rows*s0.RowBytes)}
				}
				s0.Run(i, 0, s0.Rows, in[0], s0.RowBytes)
				rw.In = in
			} else {
				rw.In = s0.Bufs[i : i+1]
			}
			if g.Run != nil {
				if out == nil {
					out = [][]byte{make([]byte, g.Rows*g.RowBytes)}
				}
				rw.Out = out
			} else {
				rw.Out = g.Bufs[i : i+1]
			}
			if err := e.redispatch(i, streams[1:], rw, st); err != nil {
				return err
			}
			if g.Run != nil {
				g.Run(i, 0, g.Rows, out[0], g.RowBytes)
			}
		}
		if retried {
			e.span("retry", e.waveSeq, n, t1)
		}
		for i := 0; i < n; i++ {
			ws.Decode(0, start+i, i)
		}
	}
	return nil
}

// now returns the wall clock only when span recording is armed (a
// metrics registry or a request span; both consume phase timings).
func (e *Engine) now() time.Time {
	if e.met == nil && e.tsp == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records [t0, now] under name — into the phase histogram and the
// request trace, whichever are armed — and returns its end instant.
func (e *Engine) span(name string, wave, shards int, t0 time.Time) time.Time {
	if e.met == nil && e.tsp == nil {
		return time.Time{}
	}
	t1 := time.Now()
	if e.met != nil {
		e.met.phase(name).Observe(uint64(t1.Sub(t0)))
	}
	if e.tsp != nil {
		e.traceSpan(name, wave, shards, t0, t1)
	}
	return t1
}
