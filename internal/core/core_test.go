package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/mnist"
	"pimdnn/internal/nn"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/trace"
	"pimdnn/internal/yolo"
)

// TestChooseScheme: with no tasklets there is no WRAM share (and no
// division by zero). ExampleChooseScheme pins the eBNN and YOLOv3 picks.
func TestChooseScheme(t *testing.T) {
	for _, tasklets := range []int{0, -3} {
		if got := ChooseScheme(300, tasklets, dpu.DefaultConfig(dpu.O3)); got != MultiDPUPerImage {
			t.Errorf("scheme at %d tasklets = %v, want multi-DPU-per-image", tasklets, got)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if MultiImagePerDPU.String() == MultiDPUPerImage.String() {
		t.Error("scheme names collide")
	}
	if !strings.Contains(Scheme(0).String(), "?") {
		t.Error("unknown scheme name")
	}
}

func TestAcceleratorEBNNEndToEnd(t *testing.T) {
	acc, err := NewAccelerator(Options{DPUs: 2, Opt: dpu.O0})
	if err != nil {
		t.Fatal(err)
	}
	ds := mnist.Load(150, 20, 31)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 8
	m, err := ebnn.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := acc.DeployEBNN(m, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	preds, stats, err := r.Infer(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(ds.Test) {
		t.Fatalf("predictions = %d", len(preds))
	}
	if stats.Seconds <= 0 || stats.Throughput() <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// liteNet is one GEMM-backed graph at simulation scale.
type liteNet struct {
	name   string
	g      *nn.Network
	size   int // input side
	layers int // GEMM layers
}

// liteNets builds YOLOv3 at ycfg, AlexNet-lite and ResNet-18-lite.
func liteNets(t *testing.T, ycfg yolo.Config) []liteNet {
	ynet, err := yolo.New(ycfg)
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
	return []liteNet{
		{"yolo", ynet.Network, ycfg.InputSize, 75},
		{"alexnet", anet.Network, anet.Cfg.InputSize, 8},
		{"resnet", rnet.Network, rnet.Cfg.InputSize, 21},
	}
}

// tinyYOLO is YOLOv3's 75-conv graph at bench scale.
var tinyYOLO = yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}

// TestDeploy: each graph deployed fixed and auto-mapped on 4 DPUs (more
// waves than nn.TestExecutor's 8) computes the host reference's output
// and heads bit for bit over every GEMM layer.
func TestDeploy(t *testing.T) {
	for _, nc := range liteNets(t, tinyYOLO) {
		in := tensor.Random(nc.size, 5)
		want, _, err := nc.g.Forward(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/auto=%v", nc.name, auto), func(t *testing.T) {
				acc, err := NewAccelerator(Options{DPUs: 4, Opt: dpu.O3})
				if err != nil {
					t.Fatal(err)
				}
				r, err := acc.Deploy(nc.g, auto)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := nc.g.Forward(in, r)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("DPU output or heads differ from the host reference")
				}
				if len(stats.Layers) != nc.layers || stats.Seconds <= 0 {
					t.Errorf("stats: %.4g s over %d layers, want %d", stats.Seconds, len(stats.Layers), nc.layers)
				}
			})
		}
	}
}

// TestNewAcceleratorDefaults: 0 DPUs means 64; a count outside
// 1..dpu.SystemDPUs is refused.
func TestNewAcceleratorDefaults(t *testing.T) {
	acc, err := NewAccelerator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc.System().NumDPUs() != 64 {
		t.Errorf("default DPUs = %d, want 64", acc.System().NumDPUs())
	}
	for _, n := range []int{-1, dpu.SystemDPUs + 1} {
		if _, err := NewAccelerator(Options{DPUs: n}); err == nil {
			t.Errorf("%d DPUs accepted", n)
		}
	}
}

func TestAdvisorFloatRule(t *testing.T) {
	p := trace.NewProfile()
	p.RecordN("__addsf3", 1, 57)
	p.RecordN("__divsf3", 1, 1072)
	recs := NewAdvisor().Analyze(RunInfo{Profile: p, Tasklets: 16, Opt: dpu.O3})
	if !Has(recs, RuleRemoveFloat) {
		t.Errorf("float rule not triggered: %+v", recs)
	}
	if Has(recs, RuleIncreaseThreads) || Has(recs, RuleEnableOpt) {
		t.Errorf("spurious rules: %+v", recs)
	}
}

func TestAdvisorThreadAndOptRules(t *testing.T) {
	recs := NewAdvisor().Analyze(RunInfo{Tasklets: 4, Opt: dpu.O0})
	if !Has(recs, RuleIncreaseThreads) {
		t.Errorf("thread rule not triggered: %+v", recs)
	}
	if !Has(recs, RuleEnableOpt) {
		t.Errorf("opt rule not triggered: %+v", recs)
	}
	// 11 tasklets at O3: neither fires.
	recs = NewAdvisor().Analyze(RunInfo{Tasklets: 11, Opt: dpu.O3})
	if Has(recs, RuleIncreaseThreads) || Has(recs, RuleEnableOpt) {
		t.Errorf("rules fired at the recommended configuration: %+v", recs)
	}
}

func TestAdvisorBalanceRule(t *testing.T) {
	recs := NewAdvisor().Analyze(RunInfo{Tasklets: 11, Opt: dpu.O3, Imbalance: 1.4})
	if !Has(recs, RuleBalanceWork) {
		t.Errorf("balance rule not triggered at 1.4x: %+v", recs)
	}
	// The Fig 4.7(a) dip: 16 images on 11 tasklets, O0, as
	// ebnn.TestImbalanceDetectsEBNNDip measures it through Stats.Imbalance.
	recs = NewAdvisor().Analyze(RunInfo{Tasklets: 11, Opt: dpu.O0, Imbalance: 1.375})
	if !Has(recs, RuleBalanceWork) {
		t.Errorf("advisor missed the eBNN dip: recs %+v", recs)
	}
	recs = NewAdvisor().Analyze(RunInfo{Tasklets: 11, Opt: dpu.O3, Imbalance: 1.05})
	if Has(recs, RuleBalanceWork) {
		t.Errorf("balance rule fired on a balanced run: %+v", recs)
	}
}

func TestAdvisorWRAMRule(t *testing.T) {
	recs := NewAdvisor().Analyze(RunInfo{
		Tasklets: 11, Opt: dpu.O3,
		IssueSlots: 100, DMACycles: 900,
	})
	if !Has(recs, RulePreferWRAM) {
		t.Errorf("WRAM rule not triggered: %+v", recs)
	}
	recs = NewAdvisor().Analyze(RunInfo{
		Tasklets: 11, Opt: dpu.O3,
		IssueSlots: 900, DMACycles: 100,
	})
	if Has(recs, RulePreferWRAM) {
		t.Errorf("WRAM rule fired on compute-bound run: %+v", recs)
	}
}

func TestAdvisorSoftMulRule(t *testing.T) {
	p := trace.NewProfile()
	p.RecordN("__mulsi3", 1, 48)
	recs := NewAdvisor().Analyze(RunInfo{Profile: p, Tasklets: 11, Opt: dpu.O3})
	if !Has(recs, RuleReduceSoftMul) {
		t.Errorf("soft-mul rule not triggered at O3: %+v", recs)
	}
	// At O0 __mulsi3 is expected (16-bit multiplies), so no flag.
	recs = NewAdvisor().Analyze(RunInfo{Profile: p, Tasklets: 11, Opt: dpu.O0})
	if Has(recs, RuleReduceSoftMul) {
		t.Errorf("soft-mul rule fired at O0: %+v", recs)
	}
}

// TestAdvisorOnRealRuns wires the advisor to actual eBNN executions: the
// float-model run must trigger the float rule, the LUT run must not.
func TestAdvisorOnRealRuns(t *testing.T) {
	ds := mnist.Load(120, 16, 33)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 5
	m, err := ebnn.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(useLUT bool) []Recommendation {
		acc, err := NewAccelerator(Options{DPUs: 1, Opt: dpu.O0})
		if err != nil {
			t.Fatal(err)
		}
		r, err := acc.DeployEBNN(m, useLUT, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Infer(ds.Test); err != nil {
			t.Fatal(err)
		}
		return NewAdvisor().Analyze(RunInfo{
			Profile:  acc.System().Profile(),
			Tasklets: 16,
			Opt:      dpu.O0,
		})
	}
	if recs := run(false); !Has(recs, RuleRemoveFloat) {
		t.Errorf("float model: float rule not triggered: %+v", recs)
	}
	if recs := run(true); Has(recs, RuleRemoveFloat) {
		t.Errorf("LUT model: float rule triggered: %+v", recs)
	}
}

// TestLayoutsUnchanged: the symbol tables, on the first and last DPU, of
// the array_yolo, serve_closed and ebnn_stream benchmark runners and of
// the lite deploys, fixed and auto-mapped (the latter are rows_zoo's
// runners), equal testdata/layouts.golden.
func TestLayoutsUnchanged(t *testing.T) {
	var b strings.Builder
	deploy := func(name string, dpus int, cache int64, fn func(*Accelerator) error) {
		a, err := NewAccelerator(Options{DPUs: dpus, Opt: dpu.O3})
		if err == nil && cache > 0 {
			_, err = exec.NewWeightCache(a.System(), cache)
		}
		if err == nil {
			err = fn(a)
		}
		if err != nil {
			t.Fatal(name, err)
		}
		defer a.System().Close()
		for _, i := range []int{0, dpus - 1} {
			d := a.System().DPU(i)
			fmt.Fprintf(&b, "%s, DPU %d: %d B WRAM free\n", name, i, d.WRAMFree())
			for _, sym := range strings.Fields(exec.ArenaSymbol + " gemm_a_row gemm_b gemm_c_row gemm_ctmp gemm_params gemm_a_wram gemm_tiles gemm_a_full" +
				" gemm_c_full gemm_a_cache ebnn_images ebnn_results ebnn_lut_mram ebnn_nimages ebnn_filters ebnn_bn ebnn_scratch") {
				if s, ok := d.Symbol(sym); ok {
					fmt.Fprintf(&b, "\t%s %d %d %d\n", s.Name, s.Kind, s.Offset, s.Size)
				}
			}
		}
	}
	batch := func(cfg yolo.Config, tasklets, tileCols int) func(*Accelerator) error {
		return func(a *Accelerator) error {
			net, err := yolo.New(cfg)
			if err != nil {
				return err
			}
			k, n := net.GEMMBounds()
			r, err := gemm.NewRunner(a.System(), gemm.RunnerConfig{MaxK: k, MaxN: n, Tasklets: tasklets, TileCols: tileCols})
			if err == nil {
				err = r.EnableBatch(net.MaxFilters())
			}
			return err
		}
	}
	deploy("array_yolo", dpu.SystemDPUs, 0, batch(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}, 8, 64))
	deploy("serve_closed", 8, 4<<20, batch(yolo.Config{InputSize: 64, Classes: 4, WidthDiv: 32, Seed: 1}, 11, 0))
	lite := liteNets(t, yolo.LiteConfig())
	for _, auto := range []bool{false, true} {
		for _, nc := range lite {
			deploy(fmt.Sprintf("%s lite automap=%v", nc.name, auto), 64, 0, func(a *Accelerator) error { _, err := a.Deploy(nc.g, auto); return err })
		}
	}
	m, err := ebnn.Train(mnist.Load(40, 8, 1), ebnn.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tasklets := range []int{16, 0} {
		for _, lut := range []bool{true, false} {
			deploy(fmt.Sprintf("ebnn lut=%v tasklets=%d", lut, tasklets), 32, 0, func(a *Accelerator) error { _, err := a.DeployEBNN(m, lut, tasklets); return err })
		}
	}
	if want, err := os.ReadFile("testdata/layouts.golden"); err != nil || b.String() != string(want) {
		t.Errorf("layouts differ from testdata/layouts.golden (%v):\n%s", err, b.String())
	}
}
