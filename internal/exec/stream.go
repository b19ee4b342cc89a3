package exec

import (
	"errors"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// StreamSet describes a single-wave dispatch whose per-shard outputs
// are too large to stage all at once and are instead streamed back one
// DPU at a time (the gemm image-per-DPU batch: each DPU computes a full
// M×N product). The engine broadcasts Pre payloads, scatters the
// per-shard inputs, broadcasts Post payloads, launches one wave over
// all shards, then gathers and delivers the intact shards — one
// single-DPU read each, in parallel ranges over the host's worker pool
// at sharded widths, inline below them. Only once every intact shard
// has been delivered are the failed shards re-run on survivors, one at
// a time, so a re-dispatch launch can safely reuse any surviving DPU.
type StreamSet struct {
	// Shards is the wave width: one shard per DPU, Shards <= NumDPUs.
	Shards int
	// Tasklets and Kernel configure the launch.
	Tasklets int
	Kernel   dpu.KernelFunc
	// Pre payloads are broadcast before the scatter (the weight
	// matrix); Post payloads after it (the parameter block).
	Pre, Post []Broadcast
	// Scatter is the per-shard input streams, full-system width (DPUs
	// beyond Shards receive padding, matching dpu_push_xfer).
	Scatter []Stream
	// OutRef/OutBytes name each shard's output region, at the symbol's
	// base.
	OutRef   host.SymbolRef
	OutBytes int
	// Ins returns shard i's input transfers for a re-dispatch onto
	// another DPU. The returned slice is read immediately.
	Ins func(i int) []Xfer
	// Deliver consumes shard i's raw output. It is called exactly once
	// per shard, concurrently for distinct shards and in no particular
	// order, so it may touch only per-shard state. The buffer is
	// engine-owned and reused; Deliver must copy or decode before
	// returning.
	Deliver func(i int, raw []byte)
}

// growBytes returns buf resliced to n bytes, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers overwrite.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// gatherFault records one shard-gather failure: a dead DPU leaves the
// re-dispatch target pool and the shard joins the failed set. A
// non-report error is returned as fatal.
func (e *Engine) gatherFault(i int, failed []bool, err error) error {
	if _, ok := host.AsFaultReport(err); !ok {
		return err
	}
	if errors.Is(err, dpu.ErrDPUDead) {
		e.markDown(i)
	}
	failed[i] = true
	return nil
}

// takeRaw returns a gather buffer of n bytes from the engine's free
// list, and putRaw hands it back: each range of the parallel gather
// holds one for its duration, so the list settles at one buffer per
// pool worker and the steady state allocates nothing.
func (e *Engine) takeRaw(n int) []byte {
	var buf []byte
	e.rawMu.Lock()
	if last := len(e.rawFree) - 1; last >= 0 {
		buf, e.rawFree = e.rawFree[last], e.rawFree[:last]
	}
	e.rawMu.Unlock()
	return growBytes(buf, n)
}

func (e *Engine) putRaw(buf []byte) {
	e.rawMu.Lock()
	e.rawFree = append(e.rawFree, buf)
	e.rawMu.Unlock()
}

// RunStream dispatches ss as one wave with streamed gather (its
// transfers are per-DPU and fan out over the worker pool). st
// accumulates like Run's.
func (e *Engine) RunStream(ss *StreamSet, st *Stats) error {
	pre := *st
	st.Tasklets = ss.Tasklets
	err := e.runStream(ss, st)
	if e.met != nil {
		e.account(pre, st)
	}
	return err
}

func (e *Engine) runStream(ss *StreamSet, st *Stats) error {
	e.waveSeq++
	seq := e.waveSeq
	t0 := e.now()
	for _, b := range ss.Pre {
		if err := e.Broadcast(b); err != nil {
			return err
		}
	}
	// Down DPUs hold stale Pre payloads: their shards are re-dispatched
	// even when no operation reports an error for them.
	failed := e.seedFailed(ss.Shards)
	for _, s := range ss.Scatter {
		if err := e.mergeFailed(failed, e.sys.PushXferRef(s.Ref, 0, s.Bufs)); err != nil {
			return err
		}
	}
	for _, b := range ss.Post {
		if err := e.Broadcast(b); err != nil {
			return err
		}
	}
	e.reseedDown(failed)
	t1 := e.span("scatter", seq, ss.Shards, t0)

	lerr := e.sys.RunWave(host.Wave{DPUs: ss.Shards, Tasklets: ss.Tasklets, Kernel: ss.Kernel, Stats: &e.waveLS})
	if err := e.mergeFailed(failed, lerr); err != nil {
		return err
	}
	st.Waves++
	st.Cycles += e.waveLS.Cycles
	st.Seconds += e.waveLS.Seconds
	st.DPUsUsed = max(st.DPUsUsed, ss.Shards)
	if e.tsp != nil {
		e.tspLS, e.tspLSOK = e.waveLS, true
	}
	t2 := e.span("launch", seq, ss.Shards, t1)

	err := e.gatherStream(ss, failed, st)
	e.span("gather", seq, ss.Shards, t2)
	return err
}

// gatherStream reads and delivers every intact shard, then re-runs the
// failed ones. The reads are the same single-DPU CopyFromDPURefInto
// whatever the fan-out, and what each charges (one transfer, its bytes,
// latency plus bytes over bandwidth) is added to integer counters under
// the System's lock, so the simulated transfer clock does not depend on
// the order the shards are read in; fault draws are per-DPU streams and
// do not either. Gather faults are only recorded in the parallel phase
// and folded into failed/markDown serially, in index order, afterwards.
func (e *Engine) gatherStream(ss *StreamSet, failed []bool, st *Stats) error {
	if cap(e.gatherErrs) < ss.Shards {
		e.gatherErrs = make([]error, ss.Shards)
	}
	errs := e.gatherErrs[:ss.Shards]
	e.sys.ParallelFor(ss.Shards, func(lo, hi int) {
		raw := e.takeRaw(ss.OutBytes)
		for i := lo; i < hi; i++ {
			var err error
			if !failed[i] {
				if err = e.sys.CopyFromDPURefInto(i, ss.OutRef, 0, raw); err == nil {
					ss.Deliver(i, raw)
				}
			}
			errs[i] = err
		}
		e.putRaw(raw)
	})
	retry := false
	for i, err := range errs {
		if err != nil {
			if ferr := e.gatherFault(i, failed, err); ferr != nil {
				return ferr
			}
		}
		retry = retry || failed[i]
	}
	if !retry {
		return nil
	}
	raw := e.takeRaw(ss.OutBytes)
	defer e.putRaw(raw)
	for i := 0; i < ss.Shards; i++ {
		if !failed[i] {
			continue
		}
		if err := e.redispatch(i, ss.Ins(i), Xfer{Ref: ss.OutRef, Data: raw}, ss.Tasklets, ss.Kernel, st); err != nil {
			return err
		}
		ss.Deliver(i, raw)
	}
	return nil
}
