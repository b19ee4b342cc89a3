package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/mnist"
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
	app, err := acc.DeployEBNN(m, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	preds, stats, err := app.Classify(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(ds.Test) {
		t.Fatalf("predictions = %d", len(preds))
	}
	if stats.Seconds <= 0 || stats.Throughput() <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if app.Model() != m {
		t.Error("Model accessor")
	}
}

func TestAcceleratorYOLOEndToEnd(t *testing.T) {
	acc, err := NewAccelerator(Options{DPUs: 4, Opt: dpu.O3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}
	app, err := acc.DeployYOLO(cfg, YOLOOptions{Tasklets: 8, TileCols: 64})
	if err != nil {
		t.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 4)
	res, stats, err := app.Detect(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.YoloOutputs) != 3 {
		t.Errorf("yolo outputs = %d", len(res.YoloOutputs))
	}
	if stats.Seconds <= 0 || len(stats.Layers) != 75 {
		t.Errorf("stats: %.4g s over %d layers", stats.Seconds, len(stats.Layers))
	}
	hostRes, err := app.DetectHost(img)
	if err != nil {
		t.Fatal(err)
	}
	for s := range hostRes.YoloOutputs {
		for i := range hostRes.YoloOutputs[s].Data {
			if hostRes.YoloOutputs[s].Data[i] != res.YoloOutputs[s].Data[i] {
				t.Fatalf("scale %d differs between host and DPU", s)
			}
		}
	}
	if app.Network() == nil {
		t.Error("Network accessor")
	}
}

func TestAcceleratorAlexNetEndToEnd(t *testing.T) {
	acc, err := NewAccelerator(Options{DPUs: 4, Opt: dpu.O3})
	if err != nil {
		t.Fatal(err)
	}
	app, err := acc.DeployAlexNet(alexnet.LiteConfig(), YOLOOptions{Tasklets: 8, TileCols: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.Network().Cfg
	img := tensor.New(3, cfg.InputSize, cfg.InputSize)
	for i := range img.Data {
		img.Data[i] = int16(i % 64)
	}
	class, logits, stats, err := app.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if class < 0 || class >= cfg.Classes || len(logits) != cfg.Classes {
		t.Errorf("class=%d logits=%d", class, len(logits))
	}
	if stats.Seconds <= 0 || len(stats.Layers) != 8 {
		t.Errorf("stats: %.4g s, %d layers", stats.Seconds, len(stats.Layers))
	}
	// The DPU result matches the host reference.
	want, _, err := app.Network().Forward(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if logits[i] != want[i] {
			t.Fatalf("logit %d: DPU %d, host %d", i, logits[i], want[i])
		}
	}
}

func TestAcceleratorResNetEndToEnd(t *testing.T) {
	acc, err := NewAccelerator(Options{DPUs: 4, Opt: dpu.O3})
	if err != nil {
		t.Fatal(err)
	}
	app, err := acc.DeployResNet(resnet.LiteConfig(), YOLOOptions{Tasklets: 8, TileCols: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.Network().Cfg
	img := tensor.New(3, cfg.InputSize, cfg.InputSize)
	for i := range img.Data {
		img.Data[i] = int16(i%48 - 24)
	}
	class, logits, stats, err := app.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if class < 0 || class >= cfg.Classes || len(logits) != cfg.Classes {
		t.Errorf("class=%d logits=%d", class, len(logits))
	}
	if stats.Seconds <= 0 || len(stats.Layers) != 21 {
		t.Errorf("stats: %.4g s, %d GEMMs", stats.Seconds, len(stats.Layers))
	}
	want, _, err := app.Network().Forward(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if logits[i] != want[i] {
			t.Fatalf("logit %d: DPU %d, host %d", i, logits[i], want[i])
		}
	}
}

func TestNewAcceleratorDefaults(t *testing.T) {
	acc, err := NewAccelerator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc.System().NumDPUs() != 64 {
		t.Errorf("default DPUs = %d, want 64", acc.System().NumDPUs())
	}
	if err := (Options{DPUs: -1}).Validate(); err == nil {
		t.Error("negative DPUs validated")
	}
	if err := (Options{DPUs: 99999}).Validate(); err == nil {
		t.Error("oversized system validated")
	}
}

func TestAdvisorFloatRule(t *testing.T) {
	p := trace.NewProfile()
	p.Record("__addsf3", 57)
	p.Record("__divsf3", 1072)
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
	p.Record("__mulsi3", 48)
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
		app, err := acc.DeployEBNN(m, useLUT, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Classify(ds.Test); err != nil {
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
	for _, o := range []YOLOOptions{{}, {AutoMap: true}} {
		deploy(fmt.Sprint("yolo lite automap=", o.AutoMap), 64, 0, func(a *Accelerator) error { _, err := a.DeployYOLO(yolo.LiteConfig(), o); return err })
		deploy(fmt.Sprint("alexnet lite automap=", o.AutoMap), 64, 0, func(a *Accelerator) error { _, err := a.DeployAlexNet(alexnet.LiteConfig(), o); return err })
		deploy(fmt.Sprint("resnet lite automap=", o.AutoMap), 64, 0, func(a *Accelerator) error { _, err := a.DeployResNet(resnet.LiteConfig(), o); return err })
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
