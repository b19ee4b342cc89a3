package exec

import (
	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// StreamSet describes a single-wave dispatch whose per-shard outputs
// are too large to stage all at once (the gemm image-per-DPU batch: each
// DPU computes a full M×N product). The engine broadcasts Pre, scatters
// the per-shard inputs, broadcasts Post, launches one wave over all
// shards, then delivers every intact shard's output in place from its
// DPU's MRAM in one rank-charged gather (host.System.GatherRows). Only
// then are the failed shards re-run on survivors, one at a time, so a
// re-dispatch launch can safely reuse any surviving DPU.
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
	// OutRef names each shard's output at the MRAM symbol's base:
	// OutRows rows of OutRowBytes bytes (a multiple of 8), back to back.
	OutRef      host.SymbolRef
	OutRows     int
	OutRowBytes int
	// Ins returns shard i's input transfers for a re-dispatch onto
	// another DPU. The returned slice is read immediately.
	Ins func(i int) []Xfer
	// Deliver consumes shard i's rows [first, first+count), row first+r
	// at block[r*blockStride] (every row at block[0:] when blockStride is
	// 0). A shard's runs cover rows [0, OutRows) in order, once per
	// dispatch, never overlapping in time; distinct shards' runs may be
	// concurrent, so Deliver may touch only per-shard state. It must not
	// write or retain block, and it runs under the DPU's lock, so it
	// must not call a DPU or System method.
	Deliver func(i, first, count int, block []byte, blockStride int)
}

// RunStream dispatches ss as one wave whose gather delivers each
// shard's output in place. st accumulates like Run's.
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

// gatherStream delivers every shard not yet failed in one GatherRows
// call, folds its faults into failed, then re-runs the failed shards one
// at a time, delivering each as one run from one retry buffer.
func (e *Engine) gatherStream(ss *StreamSet, failed []bool, st *Stats) error {
	gerr := e.sys.GatherRows(ss.OutRef, ss.OutRows, ss.OutRowBytes, failed, ss.Deliver)
	if err := e.mergeFailed(failed, gerr); err != nil {
		return err
	}
	var raw []byte
	for i, f := range failed {
		if !f {
			continue
		}
		if raw == nil {
			raw = make([]byte, ss.OutRows*ss.OutRowBytes)
		}
		if err := e.redispatch(i, ss.Ins(i), Xfer{Ref: ss.OutRef, Data: raw}, ss.Tasklets, ss.Kernel, st); err != nil {
			return err
		}
		ss.Deliver(i, 0, ss.OutRows, raw, ss.OutRowBytes)
	}
	return nil
}
