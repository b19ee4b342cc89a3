package host_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// TestParallelForReentrant holds ParallelFor to its doc: a range function
// may call back into the pool — here a nested ParallelFor whose own range
// function issues a sharded PushXferRef and one-DPU copies. A pool whose
// callers block until a worker pulls their queued shards parks every
// worker behind work nobody will start; here every caller claims its own
// shards, so the run must finish (and cover every index exactly once) at
// any width.
func TestParallelForReentrant(t *testing.T) {
	const nd = 64 // above the sharding threshold: transfers fan out
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sys, err := host.NewSystem(nd, host.DefaultConfig(dpu.O3))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.AllocMRAM("reent_buf", 8); err != nil {
				t.Fatal(err)
			}
			ref, err := sys.Resolve("reent_buf")
			if err != nil {
				t.Fatal(err)
			}
			bufs := make([][]byte, nd)
			for i := range bufs {
				bufs[i] = make([]byte, 8)
			}
			// Synchronous transfers share the System's per-DPU error
			// scratch, so concurrent range functions take turns; the
			// holder still fans out over the pool while the others wait.
			var xferMu sync.Mutex
			var outer, inner [nd]atomic.Int32
			var pushes atomic.Int32

			done := make(chan struct{})
			go func() {
				defer close(done)
				sys.ParallelFor(nd, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						outer[i].Add(1)
					}
					sys.ParallelFor(nd, func(lo2, hi2 int) {
						for j := lo2; j < hi2; j++ {
							inner[j].Add(1)
							// A one-DPU request takes no turn: its scratch is its own.
							if err := sys.CopyToDPURef(j, ref, 0, bufs[j]); err != nil {
								t.Errorf("one-DPU copy: %v", err)
							}
							pushes.Add(1)
						}
						xferMu.Lock()
						err := sys.PushXferRef(ref, 0, bufs)
						xferMu.Unlock()
						if err != nil {
							t.Errorf("nested PushXferRef: %v", err)
						}
						pushes.Add(1)
					})
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("nested ParallelFor + sharded transfer did not finish: pool workers are parked behind unstarted shards")
			}
			// Every outer range ran the whole inner loop once.
			for i := range outer {
				if got := outer[i].Load(); got != 1 {
					t.Fatalf("outer index %d covered %d times", i, got)
				}
			}
			ranges := inner[0].Load()
			if ranges < 1 {
				t.Fatal("inner loop never ran")
			}
			for j := range inner {
				if got := inner[j].Load(); got != ranges {
					t.Fatalf("inner index %d covered %d times, index 0 %d times", j, got, ranges)
				}
			}
			if got := sys.TransferStats().Transfers; got != uint64(pushes.Load()) {
				t.Errorf("transfers charged = %d, issued = %d", got, pushes.Load())
			}
		})
	}
}
