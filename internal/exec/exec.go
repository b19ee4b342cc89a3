// Package exec is the workload-agnostic execution engine for the DPU
// system: one scheduler owning the thesis's host/DPU dispatch pattern
// (§3.2, Fig 4.6) — shard work across DPUs, scatter inputs, launch the
// kernel, gather results — plus the two layers PRs 2–3 added on top of
// it: double-buffered wave pipelining through the host's asynchronous
// command queue, and retry-and-remap of failed shards onto surviving
// DPUs under fault injection.
//
// Workloads adapt to the engine through the WorkSet interface (wave
// dispatch: gemm row-per-DPU, ebnn images-per-DPU) or a StreamSet value
// (single-wave streaming dispatch: gemm image-per-DPU batch). The
// engine produces one unified Stats struct for all of them, and its
// accounting invariant is inherited from the host queue: simulated
// cycles, seconds, and per-wave statistics are bit-identical whether a
// workload runs synchronously or pipelined — pipelining only overlaps
// host encode/decode wall-clock time with queued device work.
//
// See DESIGN.md, "Execution engine", for the interface contract,
// accounting invariants, and retry semantics.
package exec

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/trace"
)

// Config is the unified dispatch configuration shared by every runner.
type Config struct {
	// Pipeline selects double-buffered dispatch through the host's
	// asynchronous command queue. Results and simulated-time accounting
	// are identical in both modes.
	Pipeline host.PipelineMode
	// Timeline, when non-nil, receives wall-clock span events for each
	// wave phase (scatter/launch/gather/retry synchronously, the fused
	// wave command when pipelined), so tools can render a dispatch
	// timeline. Nil disables span recording entirely.
	Timeline *trace.Timeline
	// Events, when non-nil, receives structured dispatch events (runs,
	// waves, DPUs marked down) with layer/wave/dpu attributes — the
	// JSONL event log. Nil disables event logging entirely.
	Events *slog.Logger
}

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
}

// Stream names one per-shard transfer stream: Bufs[i] is DPU i's buffer
// in the current staging slot. Scatter streams cover every DPU of the
// system (full-system push, matching dpu_push_xfer); the engine
// launches and gathers only the wave's first n shards.
//
// A non-nil Resident entry makes the stream weight-resident: the
// engine delivers Bufs[d] only to DPUs whose per-DPU generation stamp
// is stale (all of them on first use, none on a warm repeat, just the
// remapped ones after fault recovery) and skips the push entirely when
// every live wave DPU is current. Re-dispatch still carries the
// stream's shard buffer to the retry target — and invalidates that
// target's stamp, since the shard's row now occupies its arena slot.
type Stream struct {
	Ref      host.SymbolRef
	Off      int64
	Bufs     [][]byte
	Resident *ResidentEntry
}

// Xfer names one single-DPU transfer (a shard's input or output buffer)
// used when re-dispatching that shard onto another DPU.
type Xfer struct {
	Ref  host.SymbolRef
	Off  int64
	Data []byte
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
// each wave into per-DPU staging buffers, runs scatter → launch →
// gather (synchronously, or double-buffered through the async queue),
// re-dispatches failed shards onto survivors, and hands every shard
// back through Decode in input order.
//
// slot is the staging-slot index: always 0 on the synchronous path,
// alternating 0/1 when pipelined — a workset that supports pipelining
// must keep the two slots' buffers disjoint, because slot buffers are
// queue-owned from enqueue until the engine flushes the wave.
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
	// Stream 0 is the primary stream (fused into the pipelined wave
	// command); later streams are pushed separately. Returned slices
	// are read immediately and may be reused by the next call.
	Scatter(slot, n int) []Stream
	// Gather returns the slot's output stream for an n-shard wave.
	Gather(slot, n int) Stream
	// Decode consumes shard start+i (wave position i) from the slot's
	// gather buffer. Called for every shard of a wave in input order,
	// after the wave and any re-dispatches completed.
	Decode(slot, shard, i int)
}

// SerialGatherer is implemented by worksets whose synchronous gather
// reads result buffers one DPU at a time (the eBNN §4.1.3 contract:
// "After all temporary results for all images in a single DPU are
// inferred, the next DPU's result is read") instead of as one sharded
// gather; per-DPU gather buffer lengths may then differ.
type SerialGatherer interface {
	SerialGather() bool
}

// WidthLimiter is implemented by worksets whose mapping caps the wave
// width below the system's DPU count (a planner-produced mapping that
// pins an explicit DPU budget). MaxWaveDPUs <= 0 means no cap. Capping
// never changes results — later shards just queue into further waves —
// and synchronous scatters still push the full system width (the
// dpu_push_xfer contract); only the launch/gather width shrinks.
type WidthLimiter interface {
	MaxWaveDPUs() int
}

// waveWidth resolves the engine's wave width for ws: the system size,
// capped by the workset's WidthLimiter when it declares one.
func (e *Engine) waveWidth(ws WorkSet) int {
	nd := e.sys.NumDPUs()
	if wl, ok := ws.(WidthLimiter); ok {
		if max := wl.MaxWaveDPUs(); max > 0 && max < nd {
			nd = max
		}
	}
	return nd
}

// maxRedispatch bounds how many targets one shard (or one broadcast
// redelivery) tries before the fault is reported as fatal.
const maxRedispatch = 8

// Engine owns shard dispatch for one runner. It is not safe for
// concurrent use: the DPU symbols it scatters into are shared state.
type Engine struct {
	sys  *host.System
	pipe bool
	tl   *trace.Timeline

	// Telemetry: instruments resolved from the System's registry at
	// Configure time, the optional structured event logger, and the
	// current per-layer scope label (metrics.go). All nil/empty when
	// telemetry is off; dispatch results never depend on them.
	met   *engineMetrics
	ev    *slog.Logger
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

	// Ping-pong wave slots for the pipelined path.
	slots   [2]waveSlot
	waveSeq int

	// Reused scratch: re-dispatch input descriptors (and the resident
	// entries riding along with them, for retry-target invalidation),
	// queued re-dispatch pending handles, and RunStream's per-shard
	// gather errors and free list of gather buffers (the one piece of
	// engine state its parallel ranges share, hence the lock).
	insBuf     []Xfer
	entBuf     []*ResidentEntry
	pendBuf    []host.Pending
	gatherErrs []error
	rawMu      sync.Mutex
	rawFree    [][]byte

	// waveStats backs LaunchStats.PerDPU for the synchronous wave loop
	// (host.LaunchOnInto): the loop reads only scalar aggregates, so one
	// buffer serves every wave.
	waveStats []dpu.Stats
}

// perDPUBuf returns the reusable PerDPU backing, grown to n entries.
func (e *Engine) perDPUBuf(n int) []dpu.Stats {
	if cap(e.waveStats) < n {
		e.waveStats = make([]dpu.Stats, n)
	}
	return e.waveStats[:n]
}

// waveSlot is one of the two in-flight wave records of the pipelined
// path: the queue owns the slot's staging buffers from enqueue until
// the engine flushes the wave.
type waveSlot struct {
	idx      int // staging-slot index handed to the workset
	seq      int // engine-global wave number (timeline spans)
	start, n int
	stats    host.LaunchStats
	pend     host.Pending
	extras   []host.Pending
	errs     []error
	forced   []bool // shards failed by resident delivery at enqueue time
	t0       time.Time
	busy     bool
}

// New builds an engine over sys. One engine per runner: down-DPU state
// is scoped to the broadcasts that runner has delivered.
func New(sys *host.System, cfg Config) *Engine {
	e := &Engine{sys: sys}
	e.down = make([]bool, sys.NumDPUs())
	e.failSet = make([]bool, sys.NumDPUs())
	e.slots[1].idx = 1
	e.Configure(cfg)
	return e
}

// Configure re-applies the dispatch configuration. Call it between
// dispatches only, never while a run is in flight.
func (e *Engine) Configure(cfg Config) {
	e.pipe = cfg.Pipeline.Enabled()
	e.tl = cfg.Timeline
	e.ev = cfg.Events
	if reg := e.sys.MetricsRegistry(); reg != nil {
		e.met = newEngineMetrics(reg)
	} else {
		e.met = nil
	}
}

// Pipelined reports whether dispatch goes through the async queue.
func (e *Engine) Pipelined() bool { return e.pipe }

// System returns the underlying DPU system.
func (e *Engine) System() *host.System { return e.sys }

// Down reports whether DPU i has been excluded from dispatch.
func (e *Engine) Down(i int) bool { return e.down[i] }

// NumDown returns the number of excluded DPUs.
func (e *Engine) NumDown() int { return e.nDown }

// markDown removes DPU i from the re-dispatch target pool for the rest
// of the engine's life.
func (e *Engine) markDown(i int) {
	if !e.down[i] {
		e.down[i] = true
		e.nDown++
		if e.met != nil {
			e.met.down.Set(int64(e.nDown))
		}
		e.eventDown(i)
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

// reseedDown re-marks shards whose DPU went down since seedFailed —
// used when a broadcast lands between the scatter and the launch.
func (e *Engine) reseedDown(failed []bool) {
	for i := range failed {
		if e.down[i] {
			failed[i] = true
		}
	}
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// redeliver retries a broadcast payload on one DPU that missed it. In
// pipelined mode the redelivery goes through the command queue, keeping
// it serialized against other runners sharing the System.
func (e *Engine) redeliver(i int, b Broadcast) bool {
	for a := 0; a < maxRedispatch; a++ {
		var err error
		if e.pipe {
			err = e.sys.EnqueueCopyToDPU(i, b.Ref, b.Off, b.Data).Wait()
		} else {
			err = e.sys.CopyToDPURef(i, b.Ref, b.Off, b.Data)
		}
		if err == nil {
			return true
		}
		if errors.Is(err, dpu.ErrDPUDead) {
			return false
		}
		if _, ok := host.AsFaultReport(err); !ok {
			return false
		}
	}
	return false
}

// finishBroadcast completes a best-effort broadcast: DPUs named in the
// report get the payload redelivered; those that cannot be reached are
// marked down, so their stale copy never contributes results. A
// non-report error is fatal.
func (e *Engine) finishBroadcast(err error, b Broadcast) error {
	if err == nil {
		return nil
	}
	rep, ok := host.AsFaultReport(err)
	if !ok {
		return err
	}
	for _, f := range rep.Faults {
		if e.down[f.DPU] {
			continue
		}
		if !e.redeliver(f.DPU, b) {
			e.markDown(f.DPU)
		}
	}
	return nil
}

// Broadcast delivers b to every DPU immediately, with redelivery and
// down-marking on partial failure. Used for setup-time payloads (the
// eBNN model deploy); dispatch-time broadcasts belong to the WorkSet
// or StreamSet instead. A resident broadcast goes through the weight
// cache's generation stamps and is skipped for current DPUs.
func (e *Engine) Broadcast(b Broadcast) error {
	if b.Resident != nil {
		return e.broadcastResident(b)
	}
	return e.finishBroadcast(e.sys.CopyToSymbolRef(b.Ref, b.Off, b.Data), b)
}

// deliverOne pushes one resident payload to DPU d with bounded retries,
// stamping the entry on success. An unreachable DPU is marked down (its
// stale copy must never contribute results) and reported false.
func (e *Engine) deliverOne(d int, ref host.SymbolRef, off int64, data []byte, ent *ResidentEntry, catchup bool) bool {
	for a := 0; a < maxRedispatch; a++ {
		var err error
		if e.pipe {
			err = e.sys.EnqueueCopyToDPU(d, ref, off, data).Wait()
		} else {
			err = e.sys.CopyToDPURef(d, ref, off, data)
		}
		if err == nil {
			ent.markDelivered(d)
			ent.noteDelivered(len(data), catchup)
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
		// Cold path: one rank-parallel broadcast, then stamp everything
		// the fault report doesn't name; named DPUs get the usual
		// redeliver-or-mark-down treatment, which stamps on success.
		err := e.copyAll(b.Ref, b.Off, b.Data)
		if err == nil {
			for d := 0; d < nd; d++ {
				ent.markDelivered(d)
			}
			ent.noteDelivered(len(b.Data)*nd, false)
			return nil
		}
		rep, ok := host.AsFaultReport(err)
		if !ok {
			return err
		}
		faulted := e.failSet[:nd]
		for i := range faulted {
			faulted[i] = false
		}
		nOK := nd
		for _, f := range rep.Faults {
			if !faulted[f.DPU] {
				faulted[f.DPU] = true
				nOK--
			}
		}
		for d := 0; d < nd; d++ {
			if !faulted[d] {
				ent.markDelivered(d)
			}
		}
		ent.noteDelivered(len(b.Data)*nOK, false)
		for d := 0; d < nd; d++ {
			if faulted[d] && !e.down[d] {
				e.deliverOne(d, b.Ref, b.Off, b.Data, ent, false)
			}
		}
		return nil
	}
	for d := 0; d < nd; d++ {
		if e.down[d] || ent.Current(d) {
			continue
		}
		e.deliverOne(d, b.Ref, b.Off, b.Data, ent, true)
	}
	return nil
}

// scatterResident delivers a resident scatter stream for an n-shard
// wave: shard buffers go only to stale live DPUs (all on first use,
// none on a warm repeat), using one full-width push when the whole
// wave is cold and the staging covers the system. Delivery failures
// mark the DPU down and fail its shard, exactly like a scatter fault
// on the re-broadcast path.
func (e *Engine) scatterResident(s Stream, n int, failed []bool) error {
	ent := s.Resident
	ent.Touch()
	stale := 0
	for d := 0; d < n; d++ {
		if e.down[d] {
			continue
		}
		if !ent.Current(d) {
			stale++
		}
	}
	if stale == 0 {
		ent.noteHit()
		return nil
	}
	ent.noteMiss()
	if stale == n && e.nDown == 0 && len(s.Bufs) == e.sys.NumDPUs() {
		// Cold path: one rank-parallel full-system push (the same
		// operation the re-broadcast path issues every dispatch).
		err := e.pushAll(s.Ref, s.Off, s.Bufs)
		perDPU := len(s.Bufs[0])
		if err == nil {
			for d := 0; d < n; d++ {
				ent.markDelivered(d)
			}
			ent.noteDelivered(perDPU*len(s.Bufs), false)
			return nil
		}
		rep, ok := host.AsFaultReport(err)
		if !ok {
			return err
		}
		for d := 0; d < n; d++ {
			ent.markDelivered(d)
		}
		nOK := len(s.Bufs)
		for _, f := range rep.Faults {
			nOK--
			if errors.Is(f.Err, dpu.ErrDPUDead) {
				e.markDown(f.DPU)
			}
			if f.DPU < n {
				ent.InvalidateDPU(f.DPU)
				if f.DPU < len(failed) {
					failed[f.DPU] = true
				}
			}
		}
		if nOK > 0 {
			ent.noteDelivered(perDPU*nOK, false)
		}
		return nil
	}
	for d := 0; d < n; d++ {
		if e.down[d] || ent.Current(d) {
			continue
		}
		if !e.deliverOne(d, s.Ref, s.Off, s.Bufs[d], ent, true) && d < len(failed) {
			failed[d] = true
		}
	}
	return nil
}

// copyAll broadcasts data to every DPU, through the command queue when
// pipelined so the write is serialized with any in-flight waves.
func (e *Engine) copyAll(ref host.SymbolRef, off int64, data []byte) error {
	if e.pipe {
		return e.sys.EnqueueCopyTo(ref, off, data).Wait()
	}
	return e.sys.CopyToSymbolRef(ref, off, data)
}

// pushAll scatters per-DPU buffers to every DPU, through the command
// queue when pipelined.
func (e *Engine) pushAll(ref host.SymbolRef, off int64, bufs [][]byte) error {
	if e.pipe {
		return e.sys.EnqueuePushXfer(ref, off, bufs).Wait()
	}
	return e.sys.PushXferRef(ref, off, bufs)
}

// redispatch re-runs one failed shard on a surviving DPU: push its
// input buffers, launch the kernel on that DPU alone, and gather its
// output. from is the DPU the shard failed on — targets in its rank are
// preferred (nextTarget). The retry's cycles are added to st, so the
// stats reflect the degraded run's real cost. In pipelined mode the
// steps are queued commands, serialized with any waves already
// enqueued. ents carries the resident entries of the input streams
// (nil entries for non-resident ones): every attempted target has its
// generation stamp invalidated, because even a failed attempt may have
// partially overwritten the target's resident slot with this shard's
// row — a remapped DPU must re-receive the layer before serving it.
func (e *Engine) redispatch(from int, ins []Xfer, ents []*ResidentEntry, out Xfer, tasklets int, kernel dpu.KernelFunc, st *Stats) error {
	near := from
	for a := 0; a < maxRedispatch; a++ {
		t := e.nextTarget(near)
		if t < 0 {
			return fmt.Errorf("exec: no surviving DPU to re-dispatch onto")
		}
		// A failed attempt moves the scan past its target, like the
		// round-robin cursor always did.
		near = t
		for _, ent := range ents {
			if ent != nil {
				ent.InvalidateDPU(t)
			}
		}
		var ls host.LaunchStats
		var err error
		if e.pipe {
			pends := e.pendBuf[:0]
			for _, in := range ins {
				pends = append(pends, e.sys.EnqueueCopyToDPU(t, in.Ref, in.Off, in.Data))
			}
			pends = append(pends, e.sys.EnqueueLaunchDPU(t, tasklets, kernel, &ls))
			pends = append(pends, e.sys.EnqueueCopyFrom(t, out.Ref, out.Off, out.Data))
			// Keep the grown backing array for the next retry; the
			// handles are value types, so nothing is pinned.
			e.pendBuf = pends[:0]
			for _, p := range pends {
				err = firstErr(err, p.Wait())
			}
		} else {
			for _, in := range ins {
				if err = e.sys.CopyToDPURef(t, in.Ref, in.Off, in.Data); err != nil {
					break
				}
			}
			if err == nil {
				ls, err = e.sys.LaunchDPU(t, tasklets, kernel)
			}
			if err == nil {
				err = e.sys.CopyFromDPURefInto(t, out.Ref, out.Off, out.Data)
			}
		}
		if err == nil {
			st.Retries++
			st.Cycles += ls.Cycles
			st.Seconds += ls.Seconds
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
	return fmt.Errorf("exec: shard re-dispatch failed %d times", maxRedispatch)
}

// shardIns builds the re-dispatch input list for wave position i from
// the workset's scatter streams, reusing the engine's scratch slices.
// The parallel entry list keeps each stream's resident entry aligned
// with its Xfer so redispatch can invalidate the targets it touches.
func (e *Engine) shardIns(streams []Stream, i int) ([]Xfer, []*ResidentEntry) {
	ins := e.insBuf[:0]
	ents := e.entBuf[:0]
	for _, s := range streams {
		ins = append(ins, Xfer{Ref: s.Ref, Off: s.Off, Data: s.Bufs[i]})
		ents = append(ents, s.Resident)
	}
	e.insBuf, e.entBuf = ins, ents
	return ins, ents
}

// Run dispatches every shard of ws, synchronously or pipelined per the
// engine's configuration. st accumulates: callers zero it (or carry it
// across layers) themselves.
func (e *Engine) Run(ws WorkSet, st *Stats) error {
	pre := *st
	var err error
	if e.pipe {
		err = e.runPipelined(ws, st)
	} else {
		err = e.runSync(ws, st)
	}
	if e.met != nil || e.ev != nil {
		e.account(pre, st, err)
	}
	return err
}

// serialGather reports whether ws gathers one DPU at a time.
func serialGather(ws WorkSet) bool {
	if sg, ok := ws.(SerialGatherer); ok {
		return sg.SerialGather()
	}
	return false
}

// runSync is the synchronous wave loop: per wave of up to NumDPUs
// shards — encode, full-system scatter of every stream, launch on the
// wave's shards, gather (sharded, or serial per-DPU for SerialGatherer
// worksets), re-dispatch failed shards onto survivors, decode in input
// order.
func (e *Engine) runSync(ws WorkSet, st *Stats) error {
	for _, b := range ws.Broadcasts() {
		if err := e.Broadcast(b); err != nil {
			return err
		}
	}
	nd := e.waveWidth(ws)
	total := ws.Shards()
	tasklets := ws.Tasklets()
	st.Tasklets = tasklets
	kernel := ws.Kernel()
	serial := serialGather(ws)

	for start := 0; start < total; start += nd {
		n := total - start
		if n > nd {
			n = nd
		}
		e.waveSeq++
		seq := e.waveSeq
		ws.Encode(0, start, n)
		failed := e.seedFailed(n)

		t0 := e.now()
		streams := ws.Scatter(0, n)
		for _, s := range streams {
			if s.Resident != nil {
				if err := e.scatterResident(s, n, failed); err != nil {
					return err
				}
				continue
			}
			if err := e.mergeFailed(failed, e.sys.PushXferRef(s.Ref, s.Off, s.Bufs)); err != nil {
				return err
			}
		}
		t1 := e.span("scatter", seq, n, t0)

		ls, lerr := e.sys.LaunchOnInto(n, tasklets, kernel, e.perDPUBuf(n))
		if err := e.mergeFailed(failed, lerr); err != nil {
			return err
		}
		st.Waves++
		st.Cycles += ls.Cycles
		st.Seconds += ls.Seconds
		if n > st.DPUsUsed {
			st.DPUsUsed = n
		}
		if e.tsp != nil {
			e.tspLS, e.tspLSOK = ls, true
		}
		t2 := e.span("launch", seq, n, t1)

		g := ws.Gather(0, n)
		if serial {
			// Intact shards are gathered before any re-dispatch runs, so
			// a retry launch can safely reuse a DPU whose own results
			// were not yet read.
			for i := 0; i < n; i++ {
				if failed[i] {
					continue
				}
				if err := e.sys.CopyFromDPURefInto(i, g.Ref, g.Off, g.Bufs[i]); err != nil {
					if _, ok := host.AsFaultReport(err); !ok {
						return err
					}
					if errors.Is(err, dpu.ErrDPUDead) {
						e.markDown(i)
					}
					failed[i] = true
				}
			}
		} else {
			if err := e.mergeFailed(failed, e.sys.GatherXferRefInto(g.Ref, g.Off, len(g.Bufs[0]), g.Bufs[:n])); err != nil {
				return err
			}
		}
		t3 := e.span("gather", seq, n, t2)

		retried := false
		for i := 0; i < n; i++ {
			if failed[i] {
				retried = true
				ins, ents := e.shardIns(streams, i)
				if err := e.redispatch(i, ins, ents, Xfer{Ref: g.Ref, Off: g.Off, Data: g.Bufs[i]}, tasklets, kernel, st); err != nil {
					return err
				}
			}
		}
		if retried {
			e.span("retry", seq, n, t3)
		}
		for i := 0; i < n; i++ {
			ws.Decode(0, start+i, i)
		}
	}
	return nil
}

// runPipelined is the double-buffered wave loop: wave w is enqueued as
// one fused scatter→launch→gather command (extra scatter streams as
// separate queued pushes ahead of it) and wave w-1 is flushed — waited,
// retried, decoded — while it runs. The per-wave launch statistics are
// identical to the synchronous loop's, so Stats and all simulated
// clocks match the synchronous path bit for bit.
func (e *Engine) runPipelined(ws WorkSet, st *Stats) error {
	sys := e.sys
	bcasts := ws.Broadcasts()
	// Claim every broadcast handle before the first wave is enqueued: a
	// DPU the redelivery cannot reach must be marked down — its shards
	// forced onto survivors — before it computes on stale data.
	if len(bcasts) > 0 {
		pends := make([]host.Pending, len(bcasts))
		for i, b := range bcasts {
			if b.Resident != nil {
				// Resident broadcasts deliver (or skip) synchronously
				// through the cache's generation stamps; the queued ops
				// inside are serialized like any other command.
				if err := e.broadcastResident(b); err != nil {
					sys.Sync()
					return err
				}
				continue
			}
			pends[i] = sys.EnqueueCopyTo(b.Ref, b.Off, b.Data)
		}
		for i, b := range bcasts {
			if b.Resident != nil {
				continue
			}
			if err := e.finishBroadcast(pends[i].Wait(), b); err != nil {
				sys.Sync()
				return err
			}
		}
	}
	nd := e.waveWidth(ws)
	total := ws.Shards()
	tasklets := ws.Tasklets()
	st.Tasklets = tasklets
	kernel := ws.Kernel()

	w := 0
	for start := 0; start < total; start += nd {
		n := total - start
		if n > nd {
			n = nd
		}
		sl := &e.slots[w&1]
		// The slot's buffers are queue-owned until its wave completes;
		// flush (wait, retry, decode) before re-encoding into them.
		if err := e.flush(ws, sl, st); err != nil {
			return err
		}
		e.waveSeq++
		ws.Encode(sl.idx, start, n)
		streams := ws.Scatter(sl.idx, n)
		sl.extras = sl.extras[:0]
		if cap(sl.forced) < n {
			sl.forced = make([]bool, n)
		}
		sl.forced = sl.forced[:n]
		for i := range sl.forced {
			sl.forced[i] = false
		}
		for _, s := range streams[1:] {
			if s.Resident != nil {
				if err := e.scatterResident(s, n, sl.forced); err != nil {
					sys.Sync()
					return err
				}
				continue
			}
			sl.extras = append(sl.extras, sys.EnqueuePushXfer(s.Ref, s.Off, s.Bufs))
		}
		g := ws.Gather(sl.idx, n)
		sl.t0 = e.now()
		wv := host.Wave{
			DPUs:      n,
			Tasklets:  tasklets,
			Kernel:    kernel,
			Stats:     &sl.stats,
			Gather:    g.Ref,
			GatherOff: g.Off,
			Out:       g.Bufs[:n],
		}
		if s0 := streams[0]; s0.Resident != nil {
			// The primary stream is weight-resident: deliver (or skip)
			// it now through the cache and leave the wave's scatter ref
			// zero so the queue skips that phase entirely.
			if err := e.scatterResident(s0, n, sl.forced); err != nil {
				sys.Sync()
				return err
			}
		} else {
			wv.Scatter, wv.ScatterOff, wv.In = s0.Ref, s0.Off, s0.Bufs[:n]
		}
		sl.pend = sys.EnqueueWave(wv)
		sl.seq = e.waveSeq
		sl.start, sl.n = start, n
		sl.busy = true
		w++
	}
	// Drain the in-flight waves, older slot first (decode order).
	if err := e.flush(ws, &e.slots[w&1], st); err != nil {
		return err
	}
	return e.flush(ws, &e.slots[(w+1)&1], st)
}

// flush completes one in-flight wave: claim its queue handles, fold
// partial failures into the failed-shard set, account the launch,
// re-dispatch failed shards through the queue (serialized behind the
// already-enqueued next wave: that wave's fused gather runs before the
// retry overwrites any of its DPUs' symbols, and the wave after it
// re-scatters everything the retry clobbered), then decode the wave in
// input order.
func (e *Engine) flush(ws WorkSet, sl *waveSlot, st *Stats) error {
	if !sl.busy {
		return nil
	}
	sl.busy = false
	sl.errs = sl.errs[:0]
	for _, p := range sl.extras {
		sl.errs = append(sl.errs, p.Wait())
	}
	waveErr := sl.pend.Wait()
	failed := e.seedFailed(sl.n)
	for i := 0; i < sl.n && i < len(sl.forced); i++ {
		if sl.forced[i] {
			failed[i] = true
		}
	}
	for _, err := range sl.errs {
		if ferr := e.mergeFailed(failed, err); ferr != nil {
			e.sys.Sync() // drain the queue before reporting a fatal error
			return ferr
		}
	}
	if ferr := e.mergeFailed(failed, waveErr); ferr != nil {
		e.sys.Sync()
		return ferr
	}
	st.Waves++
	st.Cycles += sl.stats.Cycles
	st.Seconds += sl.stats.Seconds
	if sl.n > st.DPUsUsed {
		st.DPUsUsed = sl.n
	}
	if e.tsp != nil {
		e.tspLS, e.tspLSOK = sl.stats, true
	}
	t1 := e.span("wave", sl.seq, sl.n, sl.t0)
	streams := ws.Scatter(sl.idx, sl.n)
	g := ws.Gather(sl.idx, sl.n)
	retried := false
	for i := 0; i < sl.n; i++ {
		if failed[i] {
			retried = true
			ins, ents := e.shardIns(streams, i)
			if err := e.redispatch(i, ins, ents, Xfer{Ref: g.Ref, Off: g.Off, Data: g.Bufs[i]}, ws.Tasklets(), ws.Kernel(), st); err != nil {
				e.sys.Sync()
				return err
			}
		}
	}
	if retried {
		e.span("retry", sl.seq, sl.n, t1)
	}
	for i := 0; i < sl.n; i++ {
		ws.Decode(sl.idx, sl.start+i, i)
	}
	return nil
}

// now returns the wall clock only when span recording is armed (a
// timeline, a metrics registry, or a request span; all consume phase
// timings).
func (e *Engine) now() time.Time {
	if e.tl == nil && e.met == nil && e.tsp == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records [t0, now] under name — into the timeline, the phase
// histogram, the request trace, and the per-wave event log, whichever
// are armed — and returns its end instant.
func (e *Engine) span(name string, wave, shards int, t0 time.Time) time.Time {
	if e.tl == nil && e.met == nil && e.tsp == nil {
		if name == "gather" || name == "wave" {
			e.eventWave(wave, shards)
		}
		return time.Time{}
	}
	t1 := time.Now()
	if e.tl != nil {
		e.tl.Record(name, wave, shards, t0, t1)
	}
	if e.met != nil {
		e.met.phase(name).Observe(uint64(t1.Sub(t0)))
	}
	if e.tsp != nil {
		e.traceSpan(name, wave, shards, t0, t1)
	}
	if name == "gather" || name == "wave" {
		e.eventWave(wave, shards)
	}
	return t1
}
