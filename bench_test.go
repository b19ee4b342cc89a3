// Benchmark harness: one benchmark per table and figure of the thesis's
// evaluation (the E1-E17 index in DESIGN.md). Each benchmark executes the
// experiment on the simulator (or the analytic model for chapter 5) and
// reports the reproduced quantity as a custom metric, so
// `go test -bench . -benchmem` regenerates every row/series the paper
// reports. EXPERIMENTS.md records paper-versus-measured for each.
package pimdnn_test

import (
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/model"
	"pimdnn/internal/yolo"
)

// --- E1: Table 2.1 — UPMEM PIM attributes ---

func BenchmarkTable21Attributes(b *testing.B) {
	var d *dpu.DPU
	for i := 0; i < b.N; i++ {
		d = dpu.MustNew(dpu.DefaultConfig(dpu.O0))
	}
	_ = d
	b.ReportMetric(dpu.SystemDPUs, "DPUs")
	b.ReportMetric(dpu.DefaultMRAMSize/(1<<20), "MRAM-MB")
	b.ReportMetric(dpu.DefaultWRAMSize/(1<<10), "WRAM-KB")
	b.ReportMetric(dpu.PipelineDepth, "pipeline-stages")
	b.ReportMetric(dpu.DefaultFrequencyHz/1e6, "MHz")
	b.ReportMetric(dpu.MaxTasklets, "tasklets-max")
}

// --- E2: Eq 3.4 — MRAM access cycles ---

func BenchmarkEq34MRAMAccess(b *testing.B) {
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O0))
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := d.Launch(1, func(t *dpu.Tasklet) error {
			t.MRAMToWRAM(0, 0, 2048)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.DMACycles
	}
	b.ReportMetric(float64(cycles), "cycles/2048B") // paper: 1049
}

// --- E3: Table 3.1 — cycles per operation and precision ---

func BenchmarkTable31OpCycles(b *testing.B) {
	cases := []struct {
		name  string
		body  func(t *dpu.Tasklet)
		paper float64
	}{
		{"add32", func(t *dpu.Tasklet) { t.Add32(3, 4) }, 272},
		{"mul8", func(t *dpu.Tasklet) { t.Mul8(3, 4) }, 272},
		{"mul16", func(t *dpu.Tasklet) { t.Mul16(300, 40) }, 608},
		{"mul32", func(t *dpu.Tasklet) { t.Mul32(3e6, 40) }, 800},
		{"div32", func(t *dpu.Tasklet) { t.Div32(300, 4) }, 368},
		{"fadd", func(t *dpu.Tasklet) { t.FAdd(0x40400000, 0x40800000) }, 896},
		{"fsub", func(t *dpu.Tasklet) { t.FSub(0x40400000, 0x40800000) }, 928},
		{"fmul", func(t *dpu.Tasklet) { t.FMul(0x40400000, 0x40800000) }, 2528},
		{"fdiv", func(t *dpu.Tasklet) { t.FDiv(0x40400000, 0x40800000) }, 12064},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := dpu.MustNew(dpu.DefaultConfig(dpu.O0))
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, err := d.Launch(1, func(t *dpu.Tasklet) error {
					t.PerfcounterConfig()
					t.Charge(dpu.OpNop, 21)
					c.body(t)
					cycles = t.PerfcounterGet()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(c.paper, "paper-cycles")
		})
	}
}

// --- E4: Fig 3.2 — floating-point subroutine profile ---

func BenchmarkFig32Profile(b *testing.B) {
	var occ float64
	for i := 0; i < b.N; i++ {
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O0))
		_, err := d.Launch(4, func(t *dpu.Tasklet) error {
			for j := 0; j < 32; j++ {
				v := t.FFromInt(int32(j))
				n := t.FDiv(t.FSub(v, t.FFromInt(5)), t.FFromInt(3))
				if t.FGe(n, 0) {
					_ = t.FToInt(n)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		var total uint64
		for _, name := range d.Profile().FloatSubroutines() {
			total += d.Profile().Occ(name)
		}
		occ = float64(total)
	}
	b.ReportMetric(occ, "float-subroutine-occ")
}

// --- shared eBNN fixtures ---

func trainBenchModel(b *testing.B) (*ebnn.Model, []mnist.Image) {
	b.Helper()
	ds := mnist.Load(200, 16, 21)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 5
	m, err := ebnn.Train(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, ds.Test
}

func runEBNN(b *testing.B, m *ebnn.Model, imgs []mnist.Image, useLUT bool, nDPU, tasklets int) (ebnn.BatchStats, *host.System) {
	b.Helper()
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O0))
	if err != nil {
		b.Fatal(err)
	}
	r, err := ebnn.NewRunner(sys, m, useLUT, tasklets)
	if err != nil {
		b.Fatal(err)
	}
	_, st, err := r.Infer(imgs)
	if err != nil {
		b.Fatal(err)
	}
	return st, sys
}

// --- E5: Fig 4.3 — subroutine reduction with the LUT architecture ---

func BenchmarkFig43LUTSubroutines(b *testing.B) {
	m, imgs := trainBenchModel(b)
	var floatKinds, lutKinds, lutMulsi float64
	for i := 0; i < b.N; i++ {
		_, sysF := runEBNN(b, m, imgs, false, 1, 16)
		floatKinds = float64(len(sysF.Profile().FloatSubroutines()))
		_, sysL := runEBNN(b, m, imgs, true, 1, 16)
		lutKinds = float64(len(sysL.Profile().FloatSubroutines()))
		lutMulsi = float64(sysL.Profile().Occ("__mulsi3"))
	}
	b.ReportMetric(floatKinds, "float-subs-default") // paper: many ("11+")
	b.ReportMetric(lutKinds, "float-subs-LUT")       // paper: 0 float left
	b.ReportMetric(lutMulsi, "mulsi3-occ-LUT")       // paper: mulsi3 remains
}

// --- E6: Fig 4.4 — LUT speedup on a 16-image batch ---

func BenchmarkFig44LUTSpeedup(b *testing.B) {
	m, imgs := trainBenchModel(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		stF, _ := runEBNN(b, m, imgs, false, 1, 16)
		stL, _ := runEBNN(b, m, imgs, true, 1, 16)
		speedup = float64(stF.Cycles) / float64(stL.Cycles)
	}
	b.ReportMetric(speedup, "LUT-speedup") // paper: 1.4
}

// --- E7: Fig 4.7(a) — tasklet speedup for eBNN and YOLOv3 ---

func BenchmarkFig47aTaskletSpeedup(b *testing.B) {
	m, imgs := trainBenchModel(b)
	for _, tl := range []int{1, 4, 8, 11, 16} {
		b.Run("eBNN/tasklets="+itoa(tl), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st, _ := runEBNN(b, m, imgs, true, 1, tl)
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}

	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 5)
	for _, tl := range []int{1, 4, 8, 11, 16, 24} {
		b.Run("YOLO/tasklets="+itoa(tl), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, _ := host.NewSystem(2, host.DefaultConfig(dpu.O3))
				maxK, maxN := net.GEMMBounds()
				r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
					MaxK: maxK, MaxN: maxN, Tasklets: tl, TileCols: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := net.Forward(img, r)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// --- E8: Fig 4.7(b) — threading x compiler optimization for YOLOv3 ---

func BenchmarkFig47bOptimization(b *testing.B) {
	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 5)
	cases := []struct {
		name string
		opt  dpu.OptLevel
		tl   int
	}{
		{"O0-1t", dpu.O0, 1}, {"O0-11t", dpu.O0, 11},
		{"O3-1t", dpu.O3, 1}, {"O3-11t", dpu.O3, 11},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sec float64
			for i := 0; i < b.N; i++ {
				sys, _ := host.NewSystem(2, host.DefaultConfig(c.opt))
				maxK, maxN := net.GEMMBounds()
				r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
					MaxK: maxK, MaxN: maxN, Tasklets: c.tl, Naive: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := net.Forward(img, r)
				if err != nil {
					b.Fatal(err)
				}
				sec = st.Seconds
			}
			b.ReportMetric(sec, "sim-seconds")
		})
	}
}

// --- E9: Fig 4.7(c) — eBNN speedup versus the CPU with DPU count ---

func BenchmarkFig47cMultiDPU(b *testing.B) {
	m, imgs := trainBenchModel(b)
	var perImage float64
	for i := 0; i < b.N; i++ {
		st, _ := runEBNN(b, m, imgs, true, 1, 16)
		perImage = st.Seconds / float64(st.Images)
	}
	cpu := model.Xeon()
	series := cpu.SpeedupSeries(perImage, 1e5, []int{1, 256, 2560})
	b.ReportMetric(series[0].Cycles, "speedup-1DPU")
	b.ReportMetric(series[1].Cycles, "speedup-256DPU")
	b.ReportMetric(series[2].Cycles, "speedup-2560DPU")
}

// --- E10: §4.3.1 headline latencies ---

func BenchmarkHeadlineLatency(b *testing.B) {
	b.Run("eBNN-single-DPU", func(b *testing.B) {
		b.ReportAllocs()
		m, imgs := trainBenchModel(b)
		var perImage float64
		for i := 0; i < b.N; i++ {
			st, _ := runEBNN(b, m, imgs, true, 1, 16)
			perImage = st.Seconds / float64(st.Images)
		}
		b.ReportMetric(perImage, "s/image")
		b.ReportMetric(1.48e-3, "paper-s/image")
	})
	b.Run("YOLOv3-full-estimate", func(b *testing.B) {
		b.ReportAllocs()
		net, err := yolo.New(yolo.FullConfig())
		if err != nil {
			b.Fatal(err)
		}
		var total, maxLayer float64
		for i := 0; i < b.N; i++ {
			t, perLayer, err := net.EstimateSeconds(yolo.DefaultEstimateConfig())
			if err != nil {
				b.Fatal(err)
			}
			total = t
			maxLayer = 0
			for _, s := range perLayer {
				if s > maxLayer {
					maxLayer = s
				}
			}
		}
		b.ReportMetric(total, "s/image")
		b.ReportMetric(65, "paper-s/image")
		b.ReportMetric(maxLayer, "max-layer-s")
	})
}

// --- Simulator throughput: wall-clock health of the simulator itself ---

// BenchmarkSimulatorWallClock tracks how fast the simulator runs, as
// opposed to how fast the simulated hardware is: it drives the E7
// YOLO/GEMM forward path on a persistent system/runner pair and reports
// simulated DPU cycles retired per second of host wall-clock time.
// Simulated metrics are invariant under host-side optimization, so this
// is the number perf PRs move (see DESIGN.md "Simulator performance" and
// scripts/bench.sh).
func BenchmarkSimulatorWallClock(b *testing.B) {
	b.ReportAllocs()
	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 5)
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	maxK, maxN := net.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 11, TileCols: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		_, st, err := net.Forward(img, r)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(cycles)/elapsed, "sim-cycles/s")
	}
}

// --- E11: Table 5.1 — computational model on AlexNet ---

func BenchmarkTable51ComputeModel(b *testing.B) {
	var rows []model.Table51Row
	for i := 0; i < b.N; i++ {
		rows = Table51Rows()
	}
	for _, r := range rows {
		b.ReportMetric(r.TcompTOPs, r.Name+"-Tcomp-s")
	}
}

// Table51Rows wraps the model call so the benchmark loop has a stable
// target.
func Table51Rows() []model.Table51Row { return model.Table51() }

// --- E12: Table 5.2 — multiplication Cop by operand size ---

func BenchmarkTable52Cop(b *testing.B) {
	var tab map[string]map[int]float64
	for i := 0; i < b.N; i++ {
		tab = model.Table52()
	}
	b.ReportMetric(tab["pPIM"][16], "pPIM-16b")   // paper: 124
	b.ReportMetric(tab["pPIM"][32], "pPIM-32b")   // paper: 1016
	b.ReportMetric(tab["DRISA"][32], "DRISA-32b") // paper: 740
	b.ReportMetric(tab["UPMEM"][32], "UPMEM-32b") // paper: 570
}

// --- E13: Fig 5.4 — pPIM adds pattern ---

func BenchmarkFig54AddsPattern(b *testing.B) {
	var adds int
	for i := 0; i < b.N; i++ {
		adds = model.PPIMAddsEstimate(32)
	}
	b.ReportMetric(float64(adds), "adds-32b") // 952 -> 1016 with products
	b.ReportMetric(float64(model.PPIMAddsEstimate(16)), "adds-16b")
}

// --- E14: Fig 5.5 — parameter sweeps ---

func BenchmarkFig55Sweeps(b *testing.B) {
	archs := model.Architectures()
	tops := model.LogSpace(100, 1e6, 50)
	var pts int
	for i := 0; i < b.N; i++ {
		pts = 0
		for _, p := range archs {
			for _, bits := range []int{8, 16, 32} {
				pts += len(p.TOPsSweep(bits, tops))
				pts += len(p.PESweep(bits, 100000, model.LogSpace(1, p.PEs, 50)))
			}
		}
	}
	b.ReportMetric(float64(pts), "series-points")
}

// --- E15: Fig 5.6 — three-PIM comparison ---

func BenchmarkFig56Comparison(b *testing.B) {
	var pts []model.Fig56Point
	for i := 0; i < b.N; i++ {
		pts = model.Fig56()
	}
	for _, p := range pts {
		if p.Bits == 32 {
			b.ReportMetric(p.Cycles, p.PIM+"-32b-cycles")
		}
	}
}

// --- E16: Table 5.3 — memory model ---

func BenchmarkTable53MemoryModel(b *testing.B) {
	var rows []model.Table53Row
	for i := 0; i < b.N; i++ {
		rows = model.Table53()
	}
	for _, r := range rows {
		b.ReportMetric(r.TmemS, r.Name+"-Tmem-s")
	}
}

// --- E17: Table 5.4 / Fig 5.7 — seven-device benchmarking ---

func BenchmarkTable54Benchmarking(b *testing.B) {
	var devs []model.Device
	for i := 0; i < b.N; i++ {
		devs = model.Table54Devices()
	}
	for _, d := range devs {
		b.ReportMetric(d.EBNNThroughputPower(), d.Name+"-eBNN-fsW")
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}
