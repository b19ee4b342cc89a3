package nn_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/trace"
	"pimdnn/internal/yolo"
)

// mapping is one way of running a network's GEMM layers on DPUs.
type mapping struct {
	name    string
	planned bool
	naive   bool
	// images > 0 selects the image-per-DPU batch path with that many
	// images; 0 is the row-per-DPU single-image path.
	images int
	dpus   int
	// tel is the telemetry wired: "" for none, "metrics" for a registry
	// on the System before the runner is built, "tracing" for a request
	// span installed on the runner.
	tel string
}

// with is m with tel's telemetry wired, named m.name+"+"+tel: a row
// that must observe exactly what m does.
func (m mapping) with(tel string) mapping {
	m.name += "+" + tel
	m.tel = tel
	return m
}

var (
	// There is one dispatch depth: rows-sync, rows-pipelined and
	// rows-auto are the same row mapping under three names.
	rowsSync      = mapping{name: "rows-sync", dpus: 8}
	rowsPipelined = mapping{name: "rows-pipelined", dpus: 8}
	rowsAuto      = mapping{name: "rows-auto", dpus: 8}
	rowsPlanned   = mapping{name: "rows-planned", planned: true, dpus: 8}
	// The thesis's own kernel (gemm.RunnerConfig.Naive).
	rowsNaive   = mapping{name: "rows-naive", naive: true, dpus: 8}
	batchInline = mapping{name: "batch-inline", images: 6, dpus: 8}
	// 40 DPUs is above the host's sharding threshold: staging, gather →
	// decode → bias/activation and the per-image host layers run on pool
	// workers. Under -race this is the race gate for those callbacks.
	batchSharded = mapping{name: "batch-sharded", images: 36, dpus: 40}
)

// observed is what a run is compared by across core counts and
// telemetry: the executor's stats, the system's simulated transfer
// accounting and every DPU's cycle count.
type observed struct {
	Stats     *nn.ForwardStats
	Xfer      host.XferStats
	DPUCycles []uint64
}

// run executes net under m on a fresh system (created after the caller
// pinned GOMAXPROCS: the worker pool is sized at creation). Each GEMM
// layer, named by scope, has its LayerStat.Cycles as its
// pim_layer_cycles_total under metrics, where a bare Multiply after the
// pass moves no pim_layer_* counter, and under tracing one span under
// the root, in order, with one gemm.multiply or gemm.batch child.
func run(t *testing.T, net *nn.Network, scope string, m mapping, faults *dpu.FaultPlan, inputs []*tensor.Tensor) ([]nn.Output, observed) {
	t.Helper()
	sys, err := host.NewSystem(m.dpus, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	reg := metrics.NewRegistry()
	if m.tel == "metrics" {
		sys.EnableMetrics(reg)
	}
	maxK, maxN, maxM := net.GEMMBounds()
	cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64, Naive: m.naive}
	if m.planned {
		cfg.Planner = plan.New(sys)
	} else {
		cfg.Tasklets = 8
	}
	r, err := gemm.NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var root *trace.Span
	if m.tel == "tracing" {
		root = trace.NewTracer(trace.TracerConfig{MaxSpans: 1 << 20}).StartTrace("forward")
		r.SetTraceSpan(root)
	}
	if faults != nil {
		sys.InjectFaults(*faults)
	}
	var outs []nn.Output
	var stats *nn.ForwardStats
	if m.images == 0 {
		var out nn.Output
		out, stats, err = net.Forward(inputs[0], r)
		outs = []nn.Output{out}
	} else {
		if err := r.EnableBatch(maxM); err != nil {
			t.Fatal(err)
		}
		outs, stats, err = net.ForwardBatch(inputs[:m.images], r)
	}
	if err != nil {
		t.Fatal(err)
	}
	obs := observed{stats, sys.TransferStats(), make([]uint64, m.dpus)}
	for i := range obs.DPUCycles {
		obs.DPUCycles[i] = sys.DPU(i).TotalCycles()
	}
	if m.tel == "metrics" {
		layerCounters := func() map[string]uint64 {
			got := map[string]uint64{}
			for _, c := range reg.Snapshot().Counters {
				if strings.HasPrefix(c.Name, "pim_layer_") {
					got[c.Name+"{"+c.LabelVal+"}"] = c.Value
				}
			}
			return got
		}
		pass := layerCounters()
		for _, ls := range stats.Layers {
			if got := pass["pim_layer_cycles_total{"+fmt.Sprintf(scope, ls.Layer)+"}"]; got != ls.Cycles || len(pass) != 3*len(stats.Layers) {
				t.Errorf("layer %d: pim_layer_cycles_total %d, LayerStat.Cycles %d (%d layer counters)", ls.Layer, got, ls.Cycles, len(pass))
			}
		}
		if _, _, err := r.Multiply(1, 1, 1, 1, []int16{1}, []int16{1}); err != nil {
			t.Fatal(err)
		} else if after := layerCounters(); !reflect.DeepEqual(after, pass) {
			t.Errorf("a bare Multiply after the pass moved pim_layer_* counters:\n%v\n%v", pass, after)
		}
	}
	if root != nil {
		root.End()
		names, kids := map[trace.SpanID]string{}, map[string][]string{}
		spans := root.Trace().Spans()
		for _, sp := range spans {
			names[sp.ID] = sp.Name
		}
		for _, sp := range spans {
			kids[names[sp.Parent]] = append(kids[names[sp.Parent]], sp.Name)
		}
		call := map[bool]string{false: "gemm.multiply", true: "gemm.batch"}[m.images > 0]
		var want []string
		for _, ls := range stats.Layers {
			if want = append(want, fmt.Sprintf(scope, ls.Layer)); !slices.Equal(kids[want[len(want)-1]], []string{call}) {
				t.Errorf("layer span %s has children %v, want one %s", want[len(want)-1], kids[want[len(want)-1]], call)
			}
		}
		if !slices.Equal(kids["forward"], want) {
			t.Errorf("forward spans %v, want one per GEMM layer %v", kids["forward"], want)
		}
	}
	return outs, obs
}

func sameTensor(a, b *tensor.Tensor) bool {
	return a.C == b.C && a.H == b.H && a.W == b.W && slices.Equal(a.Data, b.Data)
}

// TestExecutor is the executor's invariance table: every network ×
// mapping × fault plan, at three host widths. The mappings cover the
// row path, the planner, the thesis's naive kernel, the batch path, and
// metrics and tracing twins of a row and a batch mapping. Outputs must
// equal the host reference Forward(img, nil) bit for bit (so the
// planned and naive rows compute what the fixed tiled ones do);
// ForwardStats, the system's TransferStats and per-DPU cycles must not
// depend on the core count or the telemetry wired; and the per-layer retry
// counts must add up to the total — with retries actually happening
// under the fault plan, on the batch path too.
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
	common := []mapping{rowsSync, rowsPipelined, rowsAuto, rowsPlanned, rowsNaive, batchInline,
		rowsAuto.with("metrics"), rowsAuto.with("tracing"), batchInline.with("metrics"), batchInline.with("tracing")}

	for _, nc := range []struct {
		name, scope string
		net         *nn.Network
		size        int
		layers      int // GEMM layers
		mappings    []mapping
	}{
		{"yolo-tiny", "yolo_conv%03d", ynet.Network, 32, 75, append(common, batchSharded)},
		{"alexnet-lite", "alexnet_layer%02d", anet.Network, anet.Cfg.InputSize, 8, common},
		{"resnet-lite", "resnet_layer%02d", rnet.Network, rnet.Cfg.InputSize, 21, common},
	} {
		inputs := make([]*tensor.Tensor, batchSharded.images)
		want := make([]nn.Output, len(inputs))
		for i := range inputs {
			inputs[i] = tensor.Random(nc.size, int64(i+1))
			if want[i], _, err = nc.net.Forward(inputs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, faults := range []*dpu.FaultPlan{nil, dead} {
			// byMapping holds what each mapping observed at the first
			// width: the reference for the other widths and for its
			// telemetry twins.
			byMapping := map[string]observed{}
			for _, m := range nc.mappings {
				for _, procs := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/faults=%v/procs%d", nc.name, m.name, faults != nil, procs)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						outs, obs := run(t, nc.net, nc.scope, m, faults, inputs)
						stats := obs.Stats
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
							byMapping[m.name] = obs
						} else if !reflect.DeepEqual(ref, obs) {
							t.Errorf("ForwardStats, TransferStats or DPU cycles depend on the core count:\nprocs1 %+v %+v\nprocs%d %+v %+v",
								ref.Stats, ref.Xfer, procs, stats, obs.Xfer)
						}
					})
				}
			}
			for _, m := range nc.mappings {
				twin, _, _ := strings.Cut(m.name, "+")
				if o, off := byMapping[m.name], byMapping[twin]; m.tel != "" && !reflect.DeepEqual(o, off) {
					t.Errorf("%s faults=%v: ForwardStats, TransferStats or DPU cycles depend on telemetry:\n%s %+v %+v\n%s %+v %+v",
						nc.name, faults != nil, twin, off.Stats, off.Xfer, m.name, o.Stats, o.Xfer)
				}
			}
		}
	}
}

// TestForwardBatchOutputsCallerOwned: a pass's Out and Heads are the
// caller's — a second ForwardBatch on the same network and runner, over
// different images, leaves the first pass's results equal to the host
// reference (they would change if they aliased the reused arena).
func TestForwardBatchOutputsCallerOwned(t *testing.T) {
	ynet, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := ynet.Network
	sys, err := host.NewSystem(batchInline.dpus, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	maxK, maxN, maxM := net.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64, Tasklets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableBatch(maxM); err != nil {
		t.Fatal(err)
	}
	first, second := make([]*tensor.Tensor, batchInline.images), make([]*tensor.Tensor, batchInline.images)
	for i := range first {
		first[i], second[i] = tensor.Random(32, int64(i+1)), tensor.Random(32, int64(i+100))
	}
	outs, _, err := net.ForwardBatch(first, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.ForwardBatch(second, r); err != nil {
		t.Fatal(err)
	}
	for i, in := range first {
		want, _, err := net.Forward(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensor(outs[i].Out, want.Out) || len(outs[i].Heads) != len(want.Heads) {
			t.Fatalf("image %d: output changed by a later pass", i)
		}
		for h := range want.Heads {
			if !sameTensor(outs[i].Heads[h], want.Heads[h]) {
				t.Fatalf("image %d head %d changed by a later pass", i, h)
			}
		}
	}
}

// TestConcurrentHostForward: Forward(img, nil) only reads the network, so
// goroutines may share one; each call takes its own arena, and the
// results equal the serial ones. Under -race (make race) this is the
// arena free list's race gate.
func TestConcurrentHostForward(t *testing.T) {
	for name, pn := range planNets(t) {
		net := pn.net
		imgs, want := make([]*tensor.Tensor, 4), make([]nn.Output, 4)
		for i := range imgs {
			imgs[i] = tensor.Random(pn.size, int64(i+1))
			var err error
			if want[i], _, err = net.Forward(imgs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]nn.Output, len(imgs))
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(imgs); i += 2 {
					out, _, err := net.Forward(imgs[i], nil)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = out
				}
			}(g)
		}
		wg.Wait()
		for i := range imgs {
			if got[i].Out == nil || !sameTensor(got[i].Out, want[i].Out) || len(got[i].Heads) != len(want[i].Heads) {
				t.Fatalf("%s image %d: concurrent output differs from the serial one", name, i)
			}
			for h := range want[i].Heads {
				if !sameTensor(got[i].Heads[h], want[i].Heads[h]) {
					t.Fatalf("%s image %d head %d: concurrent output differs", name, i, h)
				}
			}
		}
	}
}
