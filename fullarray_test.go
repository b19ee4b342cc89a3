// Full-array scale-out tests and the profiling benchmarks of two
// benchmark workloads: the simulator driving all 2,560 DPUs (40 ranks
// of 64) the evaluated UPMEM system populates. TestScalingShape pins the
// simulated strong/weak-scaling quantities, which are deterministic and
// must match the rank-parallel transfer model exactly.
package pimdnn_test

import (
	"math/rand"
	"runtime"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// scaleDPUs is the strong/weak-scaling sweep: one rank up to the full
// 40-rank array, in rank multiples so every configuration is
// whole-rank.
var scaleDPUs = []int{64, 256, 1024, 2560}

const (
	scaleK = 64 // GEMM inner dimension of the sweep workload
	scaleN = 64 // GEMM output columns per row
	fullM  = 2560
)

func newScaleRunner(tb testing.TB, nDPU int) *gemm.Runner {
	tb.Helper()
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O3))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: scaleK, MaxN: scaleN, Tasklets: 8, TileCols: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func scaleOperands(m int) (a, b []int16) {
	// Operation cycle costs key on the operation kind and width, never
	// on operand values (the planner's exact cost mirrors rely on it),
	// so every DPU's work — and thus every wave's maximum — is exactly
	// equal whatever the rows hold, which TestScalingShape relies on.
	// The rows repeat only to keep the operands cheap to describe.
	a = make([]int16, m*scaleK)
	for i := range a {
		a[i] = int16((i%scaleK)%13 - 6)
	}
	b = make([]int16, scaleK*scaleN)
	for i := range b {
		b[i] = int16(i%7 - 3)
	}
	return a, b
}

// --- Full-array YOLO forward: image-per-DPU across all 40 ranks ---

// BenchmarkFullArrayYOLOForward drives one image per DPU through the
// batch forward path on the full 2,560-DPU array: every conv layer is a
// single wave spanning all 40 ranks. This is the workload the
// rank-parallel transfer model and the aligned fan-out exist for, and
// the array_yolo workload's shape (make profile-array). One warm-up pass
// runs before the timer starts, so B/op is the steady state's: the cold
// pass also fills the MRAM pages and builds the network's arena.
func BenchmarkFullArrayYOLOForward(b *testing.B) {
	b.ReportAllocs()
	net, r, inputs := newArrayYOLO(b, dpu.SystemDPUs)
	if _, _, err := net.ForwardBatch(inputs, r); err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := net.ForwardBatch(inputs, r)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(r.System().Ranks()), "ranks")
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// newArrayYOLO builds the array_yolo workload's shape on nDPU DPUs: the
// 32 px, WidthDiv 64 YOLO, a batch-mode runner at 8 tasklets and 64 tile
// columns, and one synthetic scene per DPU.
func newArrayYOLO(tb testing.TB, nDPU int) (*yolo.Network, *gemm.Runner, []*yolo.Tensor) {
	tb.Helper()
	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O3))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	maxK, maxN := net.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 8, TileCols: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.EnableBatch(net.MaxFilters()); err != nil {
		tb.Fatal(err)
	}
	inputs := make([]*yolo.Tensor, nDPU)
	for i := range inputs {
		inputs[i] = yolo.SyntheticScene(32, int64(i+1))
	}
	return net, r, inputs
}

// BenchmarkRowsZoo is the rows_zoo workload's operation as bench/wl_rows.go
// sets it up: one single-image forward of each of the three LiteConfig
// networks, planner-mapped row-per-DPU Multiply (Alg 2) on its own
// 64-DPU system. Every GEMM broadcasts its whole B matrix first, so this
// is the profile in which the host's broadcast shows (make profile-rows).
func BenchmarkRowsZoo(b *testing.B) {
	b.ReportAllocs()
	ynet, err := yolo.New(yolo.LiteConfig())
	if err != nil {
		b.Fatal(err)
	}
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		b.Fatal(err)
	}
	rnet, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	image := func(size int) *tensor.Tensor {
		t := tensor.New(3, size, size)
		for i := range t.Data {
			t.Data[i] = tensor.Quantize(rng.Float64())
		}
		return t
	}
	yk, yn := ynet.GEMMBounds()
	ak, an, _ := anet.GEMMBounds()
	rk, rn := rnet.GEMMBounds()
	yimg, aimg, rimg := yolo.SyntheticScene(ynet.Cfg.InputSize, 1), image(anet.Cfg.InputSize), image(rnet.Cfg.InputSize)
	nets := []struct {
		maxK, maxN int
		forward    func(r *gemm.Runner) (uint64, error)
	}{
		{yk, yn, func(r *gemm.Runner) (uint64, error) {
			_, st, err := ynet.Forward(yimg, r)
			return st.Cycles, err
		}},
		{ak, an, func(r *gemm.Runner) (uint64, error) {
			_, st, err := anet.Forward(aimg, r)
			return st.Cycles, err
		}},
		{rk, rn, func(r *gemm.Runner) (uint64, error) {
			_, st, err := rnet.Forward(rimg, r)
			return st.Cycles, err
		}},
	}
	runners := make([]*gemm.Runner, len(nets))
	for i, n := range nets {
		sys, err := host.NewSystem(dpu.DPUsPerRank, host.DefaultConfig(dpu.O3))
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		if runners[i], err = gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: n.maxK, MaxN: n.maxN, Planner: plan.New(sys)}); err != nil {
			b.Fatal(err)
		}
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for j, n := range nets {
			c, err := n.forward(runners[j])
			if err != nil {
				b.Fatal(err)
			}
			cycles += c
		}
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// TestFullArrayPlannerNeverSlower is the auto-mapper's acceptance bar
// at scale: on the full 2,560-DPU array the planner-chosen mappings
// must produce bit-identical detections and never lose to the
// hand-tuned constants in simulated time, layer for layer and in total.
func TestFullArrayPlannerNeverSlower(t *testing.T) {
	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	input := yolo.SyntheticScene(32, 99)
	run := func(planned bool) (*yolo.Result, *yolo.ForwardStats) {
		sys, err := host.NewSystem(dpu.SystemDPUs, host.DefaultConfig(dpu.O3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		maxK, maxN := net.GEMMBounds()
		cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64}
		if planned {
			cfg.Planner = plan.New(sys)
		} else {
			cfg.Tasklets = 8 // the hand-tuned full-array constant
		}
		r, err := gemm.NewRunner(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := net.Forward(input, r)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	fixedRes, fixedSt := run(false)
	planRes, planSt := run(true)
	if len(fixedRes.Detections) != len(planRes.Detections) {
		t.Fatalf("auto-mapped forward diverged: %d vs %d detections",
			len(planRes.Detections), len(fixedRes.Detections))
	}
	for i := range fixedRes.Detections {
		if fixedRes.Detections[i] != planRes.Detections[i] {
			t.Fatalf("detection %d diverged", i)
		}
	}
	for i, fl := range fixedSt.Layers {
		pl := planSt.Layers[i]
		if pl.Seconds > fl.Seconds {
			t.Errorf("layer %d: planned %.6gs (T=%d) slower than fixed %.6gs (T=%d)",
				fl.Layer, pl.Seconds, pl.Tasklets, fl.Seconds, fl.Tasklets)
		}
	}
	if planSt.Seconds > fixedSt.Seconds {
		t.Errorf("planned forward %.6gs slower than fixed %.6gs", planSt.Seconds, fixedSt.Seconds)
	}
	t.Logf("full-array forward: fixed %.6gs -> planned %.6gs (%.2fx)",
		fixedSt.Seconds, planSt.Seconds, fixedSt.Seconds/planSt.Seconds)
}

// --- Deterministic scaling shape ---

// TestScalingShape pins the simulated strong/weak-scaling quantities,
// which are exact: every row of the sweep GEMM costs the same cycles,
// every configuration is whole-rank, so wave counts, cycle totals, and
// rank-parallel transfer times follow in closed form. Its last cell is
// the weak-scaling batch forward: one scene per DPU at 64 and 2,560
// DPUs, whose per-pass transfer count and time must be equal.
func TestScalingShape(t *testing.T) {
	type point struct {
		waves    int
		cycles   uint64
		xferTime float64 // seconds of modeled host<->MRAM time
		xfers    uint64
	}
	strong := map[int]point{}
	weak := map[int]point{}
	for _, nd := range scaleDPUs {
		{
			r := newScaleRunner(t, nd)
			a, b := scaleOperands(fullM)
			_, st, err := r.Multiply(fullM, scaleN, scaleK, 1, a, b)
			if err != nil {
				t.Fatal(err)
			}
			xs := r.System().TransferStats()
			strong[nd] = point{st.Waves, st.Cycles, xs.Time.Seconds(), xs.Transfers}
		}
		{
			r := newScaleRunner(t, nd)
			a, b := scaleOperands(nd)
			_, st, err := r.Multiply(nd, scaleN, scaleK, 1, a, b)
			if err != nil {
				t.Fatal(err)
			}
			xs := r.System().TransferStats()
			weak[nd] = point{st.Waves, st.Cycles, xs.Time.Seconds(), xs.Transfers}
		}
	}

	// One full wave at every width costs the same maximum (identical
	// rows), so the whole sweep follows from the 2,560-DPU single wave.
	perWave := strong[2560].cycles
	for _, nd := range scaleDPUs {
		// Strong scaling: fixed 2,560 rows split into ceil(M/nDPU) waves,
		// each (full or partial) costing one wave maximum.
		wantWaves := (fullM + nd - 1) / nd
		if strong[nd].waves != wantWaves {
			t.Errorf("strong %d DPUs: %d waves, want %d", nd, strong[nd].waves, wantWaves)
		}
		if want := perWave * uint64(wantWaves); strong[nd].cycles != want {
			t.Errorf("strong %d DPUs: cycles %d, want %d waves x %d", nd, strong[nd].cycles, wantWaves, perWave)
		}
		// Weak scaling: one row per DPU is always a single wave, and the
		// per-wave maximum is width-independent.
		if weak[nd].waves != 1 {
			t.Errorf("weak %d DPUs: %d waves, want 1", nd, weak[nd].waves)
		}
		if weak[nd].cycles != perWave {
			t.Errorf("weak %d DPUs: cycles %d != single-wave cycles %d", nd, weak[nd].cycles, perWave)
		}
	}

	// Rank-parallel transfers: a weak-scaling run moves 40x the bytes at
	// 2,560 DPUs, but every transfer — the B/params broadcasts, the row
	// scatter, the result gather — is charged the busiest rank's share,
	// and all ranks are equally loaded, so the modeled time is IDENTICAL
	// to the single-rank 64-DPU run. This exact equality is the defining
	// property of the rank model.
	if weak[2560].xfers != weak[64].xfers {
		t.Errorf("weak scaling transfer-call counts differ: 64 DPUs %d, 2560 DPUs %d",
			weak[64].xfers, weak[2560].xfers)
	}
	if weak[2560].xferTime != weak[64].xferTime {
		t.Errorf("weak scaling xfer time not rank-flat: 64 DPUs %.3gs, 2560 DPUs %.3gs",
			weak[64].xferTime, weak[2560].xferTime)
	}
	// Strong scaling folds 40 single-rank waves into one 40-rank wave:
	// the per-wave scatter/gather time collapses 40x (the one-time
	// broadcasts are width-invariant either way), so the total modeled
	// transfer time must fall well below the serial 64-DPU run despite
	// moving the same bytes through more DPUs at once.
	if strong[2560].xferTime >= strong[64].xferTime/2 {
		t.Errorf("strong scaling xfer time not rank-parallel: 64 DPUs %.3gs, 2560 DPUs %.3gs",
			strong[64].xferTime, strong[2560].xferTime)
	}
	t.Logf("strong: 64 DPUs %d waves %.3gs xfer; 2560 DPUs %d waves %.3gs xfer",
		strong[64].waves, strong[64].xferTime, strong[2560].waves, strong[2560].xferTime)

	// The image-per-DPU batch path is weak scaling too: one scene per
	// DPU, every layer one wave, whose gather is one call like every
	// other multi-DPU transfer. One pass therefore makes as many
	// transfers, charged as much time, at 2,560 DPUs as at 64.
	batch := map[int]host.XferStats{}
	for _, nd := range []int{64, dpu.SystemDPUs} {
		net, r, inputs := newArrayYOLO(t, nd)
		before := r.System().TransferStats()
		if _, _, err := net.ForwardBatch(inputs, r); err != nil {
			t.Fatal(err)
		}
		after := r.System().TransferStats()
		batch[nd] = host.XferStats{Transfers: after.Transfers - before.Transfers, Time: after.Time - before.Time}
	}
	if b64, bFull := batch[64], batch[dpu.SystemDPUs]; bFull != b64 || bFull.Transfers > 400 {
		t.Errorf("batch forward per pass: 64 DPUs %d transfers %v, 2560 DPUs %d transfers %v; want equal, at most 400",
			b64.Transfers, b64.Time, bFull.Transfers, bFull.Time)
	}
	t.Logf("batch forward per pass: %d transfers, %v at 64 and 2560 DPUs", batch[64].Transfers, batch[64].Time)
}

// TestFullArrayAllocBounded pins the host runtime's allocation behavior
// at full width: after warmup, a 2,560-DPU wave must not allocate
// per-DPU (the scatter buffers, error slices, ticket fan-out, and rank
// tallies are all reused scratch).
func TestFullArrayAllocBounded(t *testing.T) {
	r := newScaleRunner(t, dpu.SystemDPUs)
	a, b := scaleOperands(dpu.SystemDPUs)
	run := func() {
		if _, _, err := r.Multiply(dpu.SystemDPUs, scaleN, scaleK, 1, a, b); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the runner's staging buffers and the pool
	avg := testing.AllocsPerRun(3, run)
	// The output matrix (m*n int16) plus a handful of header allocations
	// are inherent; anything O(nDPU) — 2,560 and up — is a regression.
	if avg >= float64(dpu.SystemDPUs) {
		t.Errorf("full-array Multiply allocates %.0f per wave — O(nDPU) allocation regressed", avg)
	}
	t.Logf("full-array Multiply: %.0f allocs per op", avg)
}

// TestForwardBatchAllocBounded pins the bytes a steady-state batch
// forward allocates, at one rank's width so it is cheap. What a pass
// must allocate is its copied-out heads; what it must not is an im2col
// matrix: the lowering goes straight into the scatter staging buffer. A single K×N int16 matrix of the largest
// conv layer per image already exceeds the whole budget (it used to be
// more than half of a pass's bytes).
func TestForwardBatchAllocBounded(t *testing.T) {
	const nImg = dpu.DPUsPerRank
	net, r, inputs := newArrayYOLO(t, nImg)
	pass := func() {
		if _, _, err := net.ForwardBatch(inputs, r); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the runner's staging and gather buffers
	const passes = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perImage := float64(after.TotalAlloc-before.TotalAlloc) / passes / nImg

	var im2col int // bytes of the largest layer's K×N int16 matrix
	c := 3
	for i, def := range net.Defs {
		oc, oh, ow := net.Shape(i)
		if def.Kind == yolo.Conv {
			im2col = max(im2col, c*def.Size*def.Size*oh*ow*2)
		}
		c = oc
	}
	if perImage >= float64(im2col) {
		t.Errorf("batch forward allocates %.0f B per image per pass, want < %d (one im2col matrix of the largest layer)", perImage, im2col)
	}
	t.Logf("batch forward: %.0f B per image per pass; largest im2col matrix %d B", perImage, im2col)
}
