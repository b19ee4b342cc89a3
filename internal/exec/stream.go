package exec

import (
	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// StreamSet describes a single-wave dispatch whose per-shard inputs and
// outputs are too large to stage all at once (the gemm image-per-DPU
// batch: each DPU holds one image's B and computes a full M×N product).
// The engine broadcasts Pre, has Fill write every shard's input in place
// into its DPU's MRAM in one rank-charged scatter
// (host.System.ScatterRows), broadcasts Post, launches one wave over all
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
	// InRef and OutRef name each shard's input and output at their MRAM
	// symbols' bases: InRows rows of InRowBytes bytes and OutRows rows of
	// OutRowBytes (multiples of 8), back to back. The scatter covers every
	// DPU of the system; DPUs beyond Shards get zero rows, as
	// dpu_push_xfer pads them.
	InRef, OutRef        host.SymbolRef
	InRows, InRowBytes   int
	OutRows, OutRowBytes int
	// Fill writes every byte of shard i's input rows [first,
	// first+count) and Deliver consumes its output rows: row first+r at
	// block[r*blockStride] (every row at block[0:] when a Deliver's
	// blockStride is 0). A shard's runs cover its rows in order, never
	// overlapping in time: Fill's once in the scatter (not at all on a
	// DPU whose transfer failed) and again, as one run into a buffer
	// made on the first failure, per re-dispatch; Deliver's once per
	// dispatch. Distinct shards' runs may be concurrent, so both may
	// touch only per-shard state, and both run under the DPU's lock, so
	// neither may call a DPU or System method. Neither may retain block,
	// nor Deliver write it.
	Fill, Deliver func(i, first, count int, block []byte, blockStride int)
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
	if err := e.mergeFailed(failed, e.sys.ScatterRows(ss.InRef, ss.InRows, ss.InRowBytes, ss.Shards, ss.Fill)); err != nil {
		return err
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
// at a time, each filled as one run into one input buffer and delivered
// as one run from one output buffer, both made on the first failure.
func (e *Engine) gatherStream(ss *StreamSet, failed []bool, st *Stats) error {
	gerr := e.sys.GatherRows(ss.OutRef, ss.OutRows, ss.OutRowBytes, failed, ss.Deliver)
	if err := e.mergeFailed(failed, gerr); err != nil {
		return err
	}
	var in, raw []byte
	for i, f := range failed {
		if !f {
			continue
		}
		if raw == nil {
			in, raw = make([]byte, ss.InRows*ss.InRowBytes), make([]byte, ss.OutRows*ss.OutRowBytes)
		}
		ss.Fill(i, 0, ss.InRows, in, ss.InRowBytes)
		if err := e.redispatch(i, nil, host.Wave{
			Tasklets: ss.Tasklets, Kernel: ss.Kernel,
			Scatter: ss.InRef, In: [][]byte{in}, Gather: ss.OutRef, Out: [][]byte{raw},
		}, st); err != nil {
			return err
		}
		ss.Deliver(i, 0, ss.OutRows, raw, ss.OutRowBytes)
	}
	return nil
}
