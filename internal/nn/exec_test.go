package nn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// mapping is one way of running a network's GEMM layers on DPUs.
type mapping struct {
	name     string
	pipeline host.PipelineMode
	planned  bool
	// images > 0 selects the image-per-DPU batch path with that many
	// images; 0 is the row-per-DPU single-image path.
	images int
	dpus   int
}

var (
	rowsSync      = mapping{name: "rows-sync", pipeline: host.PipelineOff, dpus: 8}
	rowsPipelined = mapping{name: "rows-pipelined", pipeline: host.PipelineOn, dpus: 8}
	rowsPlanned   = mapping{name: "rows-planned", planned: true, dpus: 8}
	batchInline   = mapping{name: "batch-inline", pipeline: host.PipelineOff, images: 6, dpus: 8}
	// 40 DPUs is above the host's sharding threshold: staging, gather →
	// decode → bias/activation and the per-image host layers run on pool
	// workers. Under -race this is the race gate for those callbacks.
	batchSharded = mapping{name: "batch-sharded", pipeline: host.PipelineOff, images: 36, dpus: 40}
)

func randomImage(size int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(3, size, size)
	for i := range t.Data {
		t.Data[i] = tensor.Quantize(rng.Float64())
	}
	return t
}

// run executes net under m on a fresh system (created after the caller
// pinned GOMAXPROCS: the worker pool is sized at creation).
func run(t *testing.T, net *nn.Network, m mapping, faults *dpu.FaultPlan, inputs []*tensor.Tensor) ([]nn.Output, *nn.ForwardStats) {
	t.Helper()
	sys, err := host.NewSystem(m.dpus, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	maxK, maxN, maxM := net.GEMMBounds()
	cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64, Exec: exec.Config{Pipeline: m.pipeline}}
	if m.planned {
		cfg.Planner = plan.New(sys)
	} else {
		cfg.Tasklets = 8
	}
	r, err := gemm.NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		sys.InjectFaults(*faults)
	}
	if m.images == 0 {
		out, stats, err := net.Forward(inputs[0], r)
		if err != nil {
			t.Fatal(err)
		}
		return []nn.Output{out}, stats
	}
	if err := r.EnableBatch(maxM); err != nil {
		t.Fatal(err)
	}
	outs, stats, err := net.ForwardBatch(inputs[:m.images], r)
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

func sameTensor(a, b *tensor.Tensor) bool {
	return a.C == b.C && a.H == b.H && a.W == b.W && slices.Equal(a.Data, b.Data)
}

// TestExecutor is the executor's invariance table: every network ×
// mapping × fault plan, at three host widths. Outputs must equal the
// host reference Forward(img, nil) bit for bit; ForwardStats must not
// depend on the core count, nor on the pipeline mode; and the per-layer
// retry counts must add up to the total — with retries actually
// happening under the fault plan, on the batch path too.
func TestExecutor(t *testing.T) {
	ynet, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	rnet, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	dead := &dpu.FaultPlan{Seed: 1, DeadFrac: 0.25, DeadAfterLaunches: 1}

	for _, nc := range []struct {
		name     string
		net      *nn.Network
		size     int
		layers   int // GEMM layers
		mappings []mapping
	}{
		{"yolo-tiny", ynet.Network, 32, 75, []mapping{rowsSync, rowsPipelined, rowsPlanned, batchInline, batchSharded}},
		{"alexnet-lite", anet.Network, anet.Cfg.InputSize, 8, []mapping{rowsSync, rowsPipelined, rowsPlanned, batchInline}},
		{"resnet-lite", rnet.Network, rnet.Cfg.InputSize, 21, []mapping{rowsSync, rowsPipelined, rowsPlanned, batchInline}},
	} {
		inputs := make([]*tensor.Tensor, batchSharded.images)
		want := make([]nn.Output, len(inputs))
		for i := range inputs {
			inputs[i] = randomImage(nc.size, int64(i+1))
			if want[i], _, err = nc.net.Forward(inputs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, faults := range []*dpu.FaultPlan{nil, dead} {
			// byMapping holds each mapping's stats at the first width:
			// the reference for the other widths and for the
			// sync-vs-pipelined comparison.
			byMapping := map[string]*nn.ForwardStats{}
			for _, m := range nc.mappings {
				for _, procs := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/faults=%v/procs%d", nc.name, m.name, faults != nil, procs)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						outs, stats := run(t, nc.net, m, faults, inputs)
						for i, out := range outs {
							if !sameTensor(out.Out, want[i].Out) {
								t.Fatalf("image %d: output differs from the host reference", i)
							}
							if len(out.Heads) != len(want[i].Heads) {
								t.Fatalf("image %d: %d heads, want %d", i, len(out.Heads), len(want[i].Heads))
							}
							for h := range out.Heads {
								if !sameTensor(out.Heads[h], want[i].Heads[h]) {
									t.Fatalf("image %d head %d differs from the host reference", i, h)
								}
							}
						}
						if len(stats.Layers) != nc.layers || stats.Cycles == 0 || stats.Seconds <= 0 {
							t.Fatalf("stats: %d layers (want %d), %d cycles, %g s",
								len(stats.Layers), nc.layers, stats.Cycles, stats.Seconds)
						}
						var retries int
						for _, ls := range stats.Layers {
							retries += ls.Retries
							if ls.DPUsUsed < 1 || ls.Tasklets < 1 {
								t.Fatalf("layer %d: %d DPUs, %d tasklets", ls.Layer, ls.DPUsUsed, ls.Tasklets)
							}
						}
						if retries != stats.Retries {
							t.Errorf("layer retries sum %d != total %d", retries, stats.Retries)
						}
						if (faults != nil) != (stats.Retries > 0) {
							t.Errorf("retries = %d with faults=%v", stats.Retries, faults != nil)
						}
						if ref, ok := byMapping[m.name]; !ok {
							byMapping[m.name] = stats
						} else if !reflect.DeepEqual(ref, stats) {
							t.Errorf("ForwardStats depend on the core count:\nprocs1 %+v\nprocs%d %+v", ref, procs, stats)
						}
					})
				}
			}
			if s, p := byMapping[rowsSync.name], byMapping[rowsPipelined.name]; !reflect.DeepEqual(s, p) {
				t.Errorf("%s faults=%v: ForwardStats depend on the pipeline mode:\nsync      %+v\npipelined %+v",
					nc.name, faults != nil, s, p)
			}
		}
	}
}
