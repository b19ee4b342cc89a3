package host

import (
	"sync"
	"sync/atomic"

	"pimdnn/internal/metrics"
)

// parallelThreshold is the DPU count below which a move with no launch
// (a push, a gather, a ScatterRows) and ParallelFor stay on the caller:
// a pool dispatch costs a run descriptor and channel sends per call,
// which only pays off once the per-call work spans enough DPUs. Below
// the threshold the transfer paths are allocation-free (see the
// AllocsPerRun regression tests); from it they fan out. No timing has
// chosen 32. A launch fans out by its predicted work instead (fansOut).
const parallelThreshold = 32

// A launch's predicted host work, in multiply-accumulates, is
// DPUs × (dpuHostWork + Wave.Work): what its kernels compute plus a
// fixed cost per DPU request (its lock, fault draws, tasklet merge and
// transfers). It fans out to the worker pool from fanOutWork and runs
// on the caller below it. Each launch shape of the repo benchmark's
// workloads, timed on the caller and on the pool in alternation (2-core
// Xeon, go1.24.0; predicted work in brackets):
//
//	rows_zoo, 12 DPUs × 81,675 MACs (1.03 M)   184 µs inline, 206 µs pooled
//	rows_zoo, 64 × 512 (0.29 M)                123 µs,        127 µs
//	rows_zoo, 10 × 32 (0.04 M)                 6.1 µs,        8.5 µs
//	ebnn_stream, 32 × 778,752 (25 M)           568 µs,        417 µs
//	array_yolo, 2,560 × 32 (10.6 M)            7.5 ms,        3.5 ms
//
// Every rows_zoo shape (up to 1.03 M) ran within 4 % of the pool or
// faster inline; fanOutWork is 4× above that and 2.5× below
// array_yolo's smallest wave, which dpuHostWork alone keeps pooled.
// 10 × 32 took 0.6 µs a DPU, what 1–3 K MACs cost in the other rows_zoo
// shapes: dpuHostWork rounds that up.
const (
	dpuHostWork = 4096
	fanOutWork  = 4 << 20
)

// fansOut reports whether a launch on n DPUs of work MACs each pays for
// the worker pool.
func fansOut(n int, work int64) bool {
	return int64(n)*(dpuHostWork+work) >= fanOutWork
}

// workerPool is a persistent set of worker goroutines sized to
// GOMAXPROCS. It replaces the previous goroutine-per-DPU launch spawn
// (up to 2,560 goroutines re-created per conv layer) with long-lived
// workers that claim sharded index ranges of the runs posted to them.
type workerPool struct {
	workers int
	jobs    chan *poolRun

	// shards, when non-nil, observes the shard count of every run — the
	// pool-utilization histogram (System.EnableMetrics wires it before
	// concurrent use). One nil check per run when telemetry is off.
	shards *metrics.Histogram

	closeOnce sync.Once
}

// poolRun is one run's shared descriptor. Shards are not handed out as
// separate channel messages but claimed by index from next, by the
// workers that pulled the run off the channel and by the caller itself:
// the caller keeps claiming until no shard is left and then waits only
// for shards that are already executing on another goroutine. A range
// function may therefore itself call into the pool (a sharded transfer
// or a nested ParallelFor issued from user code running on a worker)
// without every worker ending up parked behind work nobody will start.
type poolRun struct {
	fn             func(lo, hi int)
	n, per, shards int
	next           atomic.Int32
	wg             sync.WaitGroup
}

// help claims and executes shards until none is left.
func (r *poolRun) help() {
	for {
		s := int(r.next.Add(1)) - 1
		if s >= r.shards {
			return
		}
		lo := s * r.per
		hi := lo + r.per
		if hi > r.n {
			hi = r.n
		}
		// Ceil division can leave the last shards empty.
		if lo < hi {
			r.fn(lo, hi)
		}
		r.wg.Done()
	}
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, jobs: make(chan *poolRun, workers)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for r := range p.jobs {
		r.help()
	}
}

// close shuts the workers down. Safe to call more than once; the System
// finalizer uses it so pools of garbage-collected systems do not leak
// goroutines.
func (p *workerPool) close() {
	p.closeOnce.Do(func() { close(p.jobs) })
}

// run partitions [0, n) into contiguous shards and executes fn over them
// on the workers, blocking until all shards finish. fn must be safe for
// concurrent invocation on disjoint ranges.
func (p *workerPool) run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	shards := p.workers
	if shards > n {
		shards = n
	}
	// Ceil division keeps shard sizes within one element of each other.
	p.dispatch(n, (n+shards-1)/shards, shards, fn)
}

// runAligned is run with shard boundaries rounded up to a multiple of
// align, so one shard never straddles an alignment group. The host
// transfer and wave paths pass the rank width: the fan-out is then
// rank-first (whole ranks per shard, DPUs within the rank inside one
// shard), which keeps a rank's DPUs — whose simulated memory pages sit
// together — on one worker's cache, and means a shard corresponds to
// whole rank channels of the modeled transfer. align <= 1 (or a single
// alignment group) degenerates to run.
func (p *workerPool) runAligned(n, align int, fn func(lo, hi int)) {
	if align <= 1 || n <= align {
		p.run(n, fn)
		return
	}
	groups := (n + align - 1) / align
	shards := p.workers
	if shards > groups {
		shards = groups
	}
	// Ceil division over whole groups: shard sizes stay within one
	// group of each other and every boundary is a multiple of align.
	p.dispatch(n, (groups+shards-1)/shards*align, shards, fn)
}

// dispatch executes fn over the shards [s*per, (s+1)*per) ∩ [0, n). One
// token per extra shard wakes a worker; a token that cannot be queued
// (every worker already has one waiting) is dropped, because the caller
// covers whatever the workers do not claim.
func (p *workerPool) dispatch(n, per, shards int, fn func(lo, hi int)) {
	p.shards.Observe(uint64(shards))
	if shards <= 1 {
		fn(0, n)
		return
	}
	r := &poolRun{fn: fn, n: n, per: per, shards: shards}
	r.wg.Add(shards)
	for s := 1; s < shards; s++ {
		select {
		case p.jobs <- r:
		default:
		}
	}
	r.help()
	r.wg.Wait()
}
