package gemm

import (
	"reflect"
	"runtime"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// batchOutcome is everything a batch run may be observed by.
type batchOutcome struct {
	Stats     [2]Stats
	DPUCycles []uint64
	Xfer      host.XferStats
}

// batchProblem returns an m×k weight matrix, nImg k×n images and their
// host reference products at alpha.
func batchProblem(t *testing.T, m, n, k, nImg int, alpha int16) (a []int16, bs, want [][]int16) {
	t.Helper()
	a = make([]int16, m*k)
	for i := range a {
		a[i] = int16(i%11 - 5)
	}
	bs, want = make([][]int16, nImg), make([][]int16, nImg)
	for img := range bs {
		bs[img] = make([]int16, k*n)
		for i := range bs[img] {
			bs[img][i] = int16((i+img*7)%9 - 4)
		}
		var err error
		if want[img], err = Reference(m, n, k, alpha, a, bs[img]); err != nil {
			t.Fatal(err)
		}
	}
	return a, bs, want
}

// TestBatchInvariance is internal/exec's TestStreamInvariance at the
// gemm level: MultiplyBatch with one image per DPU of a sharded-width
// (64-DPU) system, twice per runner so the second call is the warm one,
// with the weight matrix re-broadcast or MRAM-resident (each under the
// sync and pipelined names, which run alike: there is one dispatch
// depth), clean, with a quarter of the DPUs dying at the first
// launch, and with transient transfer faults — at GOMAXPROCS 1, 2 and
// 4. Each cell runs two problems: one whose waves run on the caller at
// every core count, and one whose per-image work fans them out. Every
// product must equal the host reference, and Stats, per-DPU cycles and
// all of TransferStats must equal the GOMAXPROCS=1 row, where staging,
// gather and decode run inline on the caller.
func TestBatchInvariance(t *testing.T) {
	const nImg = 64
	type problem struct {
		m, n, k  int // n is not a multiple of 4: padded row stride
		a        []int16
		bs, want [][]int16
	}
	// 880 MACs an image keep a 64-image wave on the caller; 142,848 put
	// it at 2.2× the host's fan-out threshold.
	probs := []*problem{{m: 4, n: 22, k: 10}, {m: 16, n: 62, k: 144}}
	for _, p := range probs {
		p.a, p.bs, p.want = batchProblem(t, p.m, p.n, p.k, nImg, 2)
	}
	run := func(t *testing.T, p *problem, procs int, resident bool, plan *dpu.FaultPlan) batchOutcome {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := RunnerConfig{MaxK: p.k, MaxN: p.n, Tasklets: 4, TileCols: 8}
		var r *Runner
		if resident {
			r, _, _ = newResidentRunner(t, nImg, host.Topology{}, cfg, 8192, "m")
			if err := r.EnableBatch(p.m); err != nil {
				t.Fatal(err)
			}
		} else {
			r = newBatchRunner(t, nImg, p.m, cfg)
			t.Cleanup(r.sys.Close)
		}
		if plan != nil {
			r.sys.InjectFaults(*plan)
		}
		var o batchOutcome
		for call := range o.Stats {
			l := Layer{}
			if resident {
				l = layer0
			}
			got, st, _ := batchCall(t, r, l, p.m, p.n, p.k, 2, p.a, p.bs)
			if !reflect.DeepEqual(got, p.want) {
				t.Fatalf("%dx%dx%d GOMAXPROCS=%d call %d: products differ from the host reference", p.m, p.n, p.k, procs, call)
			}
			o.Stats[call] = st
		}
		o.Xfer = r.sys.TransferStats()
		o.DPUCycles = make([]uint64, nImg)
		for i := range o.DPUCycles {
			o.DPUCycles[i] = r.sys.DPU(i).TotalCycles()
		}
		return o
	}
	for _, res := range []struct {
		name     string
		resident bool
	}{{"rebroadcast", false}, {"resident", true}} {
		for _, md := range []string{"sync", "pipelined"} {
			for _, fc := range []struct {
				name string
				plan *dpu.FaultPlan
			}{
				{"clean", nil},
				{"dead", &dpu.FaultPlan{Seed: 1, DeadFrac: 0.25}},
				{"transient", &dpu.FaultPlan{Seed: 3, TransferProb: 0.05}},
			} {
				t.Run(res.name+"/"+md+"/"+fc.name, func(t *testing.T) {
					for _, p := range probs {
						base := run(t, p, 1, res.resident, fc.plan)
						if retried := base.Stats[0].Retries > 0; retried != (fc.plan != nil) {
							t.Errorf("%dx%dx%d: first call retries = %d under plan %v", p.m, p.n, p.k, base.Stats[0].Retries, fc.plan)
						}
						for _, procs := range []int{2, 4} {
							if got := run(t, p, procs, res.resident, fc.plan); !reflect.DeepEqual(got, base) {
								t.Errorf("%dx%dx%d GOMAXPROCS=%d diverges from GOMAXPROCS=1:\n got %+v %+v\nwant %+v %+v",
									p.m, p.n, p.k, procs, got.Stats, got.Xfer, base.Stats, base.Xfer)
							}
						}
					}
				})
			}
		}
	}
}
