package ebnn

import (
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

var trainForKernel = trainOnce(200, 40, 21, 10)

func newRunner(t *testing.T, nDPU int, m *Model, useLUT bool, tasklets int) *Runner {
	t.Helper()
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sys, m, useLUT, tasklets)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// readResults reads n bytes of DPU d's raw result buffer.
func readResults(t *testing.T, r *Runner, d, n int) []byte {
	t.Helper()
	raw := make([]byte, n)
	if _, err := r.sys.DPU(d).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: r.refResults.Offset(), Buf: raw}}); err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRunnerValidation(t *testing.T) {
	m, _ := trainForKernel(t)
	sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O0))
	if _, err := NewRunner(sys, m, true, 0); err == nil {
		t.Error("0 tasklets accepted")
	}
	if _, err := NewRunner(sys, m, true, 25); err == nil {
		t.Error("25 tasklets accepted")
	}
	bad := &Model{F: 9}
	if _, err := NewRunner(sys, bad, true, 4); err == nil {
		t.Error("9 filters accepted")
	}
}

// TestNewRunnerRejectsMalformedModel: a model whose parts disagree with
// F or with the ten classes is an error from NewRunner, not a panic on a
// pool worker at the first Infer, nor a silently different model.
func TestNewRunnerRejectsMalformedModel(t *testing.T) {
	good, _ := trainForKernel(t)
	sys, err := host.NewSystem(1, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	longRow := append([][]float32(nil), good.Weights...)
	longRow[3] = append(append([]float32(nil), good.Weights[3]...), 1)
	for _, c := range []struct {
		name string
		edit func(m *Model)
	}{
		{"bias shorter than the classes", func(m *Model) { m.Bias = m.Bias[:mnist.NumClasses-1] }},
		{"weight row longer than the features", func(m *Model) { m.Weights = longRow }},
		{"filters shorter than F", func(m *Model) { m.Filters = m.Filters[:m.F-1] }},
		{"BN shorter than F", func(m *Model) { m.BN = m.BN[:m.F-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := *good
			c.edit(&m)
			if _, err := NewRunner(sys, &m, true, 4); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// TestDPUMatchesHostLUT: the LUT kernel's activation bits must equal the
// host LUT reference bit-for-bit.
func TestDPUMatchesHostLUT(t *testing.T) {
	m, ds := trainForKernel(t)
	r := newRunner(t, 1, m, true, 8)
	imgs := ds.Test[:4]
	preds, _, err := r.Infer(imgs)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	lut := m.BuildLUT()
	for i := range imgs {
		want := m.PredictFeatures(m.FeaturesViaLUT(&imgs[i], lut))
		if preds[i] != want {
			t.Errorf("image %d: DPU pred %d, host pred %d", i, preds[i], want)
		}
	}
	// Bit-level check through the raw result buffer.
	raw := readResults(t, r, 0, len(imgs)*ResultSize)
	for i := range imgs {
		gotF := DecodeFeatures(raw[i*ResultSize:(i+1)*ResultSize], m.F)
		wantF := m.FeaturesViaLUT(&imgs[i], lut)
		for j := range wantF {
			if gotF[j] != wantF[j] {
				t.Fatalf("image %d feature %d: DPU %d, host %d", i, j, gotF[j], wantF[j])
			}
		}
	}
}

// TestDPUMatchesHostFloat: the default (Fig 4.2a) kernel computes BN via
// DPU software floating point and must reproduce the host float32
// reference exactly (softfloat is bit-exact).
func TestDPUMatchesHostFloat(t *testing.T) {
	m, ds := trainForKernel(t)
	r := newRunner(t, 1, m, false, 8)
	imgs := ds.Test[:4]
	if _, _, err := r.Infer(imgs); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	raw := readResults(t, r, 0, len(imgs)*ResultSize)
	for i := range imgs {
		gotF := DecodeFeatures(raw[i*ResultSize:(i+1)*ResultSize], m.F)
		wantF := m.Features(&imgs[i])
		for j := range wantF {
			if gotF[j] != wantF[j] {
				t.Fatalf("image %d feature %d: DPU %d, host %d", i, j, gotF[j], wantF[j])
			}
		}
	}
}

// TestFig43SubroutineReduction reproduces Fig 4.3: the default model
// calls a spread of floating-point subroutines; the LUT model eliminates
// all of them, leaving only integer helpers (__mulsi3).
func TestFig43SubroutineReduction(t *testing.T) {
	m, ds := trainForKernel(t)
	imgs := ds.Test[:16]

	rFloat := newRunner(t, 1, m, false, 16)
	if _, _, err := rFloat.Infer(imgs); err != nil {
		t.Fatal(err)
	}
	floatSubs := rFloat.sys.Profile().FloatSubroutines()
	if len(floatSubs) < 4 {
		t.Errorf("default model float subroutines = %v, want >= 4 kinds", floatSubs)
	}

	rLUT := newRunner(t, 1, m, true, 16)
	if _, _, err := rLUT.Infer(imgs); err != nil {
		t.Fatal(err)
	}
	if subs := rLUT.sys.Profile().FloatSubroutines(); len(subs) != 0 {
		t.Errorf("LUT model still calls float subroutines: %v", subs)
	}
	if occ := rLUT.sys.Profile().Occ("__mulsi3"); occ == 0 {
		t.Error("LUT model lost its __mulsi3 calls (Fig 4.3b shows them remaining)")
	}
}

// TestFig44LUTSpeedup reproduces Fig 4.4: the LUT architecture speeds up
// a 16-image batch. The thesis measures 1.4x; we assert the LUT wins by a
// same-order factor (1.2x–3x).
func TestFig44LUTSpeedup(t *testing.T) {
	m, ds := trainForKernel(t)
	imgs := ds.Test[:16]

	run := func(useLUT bool) uint64 {
		r := newRunner(t, 1, m, useLUT, 16)
		_, st, err := r.Infer(imgs)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	floatCycles := run(false)
	lutCycles := run(true)
	speedup := float64(floatCycles) / float64(lutCycles)
	if speedup < 1.2 || speedup > 3.0 {
		t.Errorf("LUT speedup = %.2fx (float %d, LUT %d cycles); paper reports 1.4x, want same order",
			speedup, floatCycles, lutCycles)
	}
	t.Logf("Fig 4.4: LUT speedup %.2fx (paper: 1.4x)", speedup)
}

// TestTaskletScalingShape reproduces the eBNN curve of Fig 4.7(a): more
// tasklets help until the pipeline saturates; 16 tasklets beat 11 because
// 16 images split evenly (ceil(16/11)=2 vs 16/16=1 images per tasklet).
func TestTaskletScalingShape(t *testing.T) {
	m, ds := trainForKernel(t)
	imgs := ds.Test[:16]
	cycles := map[int]uint64{}
	for _, tl := range []int{1, 4, 11, 16} {
		r := newRunner(t, 1, m, true, tl)
		_, st, err := r.Infer(imgs)
		if err != nil {
			t.Fatal(err)
		}
		cycles[tl] = st.Cycles
	}
	if !(cycles[1] > cycles[4] && cycles[4] > cycles[11]) {
		t.Errorf("speedup not increasing: %v", cycles)
	}
	if cycles[16] >= cycles[11] {
		t.Errorf("16 tasklets (%d cycles) should beat 11 (%d) on a 16-image batch",
			cycles[16], cycles[11])
	}
}

func TestPartialBatchAndPadding(t *testing.T) {
	m, ds := trainForKernel(t)
	r := newRunner(t, 2, m, true, 4)
	// 19 images over 2 DPUs: 16 + 3, exercising the nimages variable
	// that keeps the DPU off the padded slots (§3.2).
	imgs := ds.Test[:19]
	preds, st, err := r.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 19 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if st.DPUsUsed != 2 || st.Waves != 1 {
		t.Errorf("stats = %+v", st)
	}
	lut := m.BuildLUT()
	for i := range imgs {
		want := m.PredictFeatures(m.FeaturesViaLUT(&imgs[i], lut))
		if preds[i] != want {
			t.Errorf("image %d: pred %d, want %d", i, preds[i], want)
		}
	}
}

func TestMultiWave(t *testing.T) {
	m, ds := trainForKernel(t)
	r := newRunner(t, 1, m, true, 8)
	// 20 images on a 1-DPU system: 2 waves of 16 + 4.
	imgs := ds.Test[:20]
	preds, st, err := r.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Waves != 2 {
		t.Errorf("waves = %d, want 2", st.Waves)
	}
	if len(preds) != 20 {
		t.Errorf("predictions = %d", len(preds))
	}
	if st.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestInferEmpty(t *testing.T) {
	m, _ := trainForKernel(t)
	r := newRunner(t, 1, m, true, 4)
	if _, _, err := r.Infer(nil); err == nil {
		t.Error("empty inference accepted")
	}
}

// TestDPUAccuracyEndToEnd: classification through the simulated PIM
// matches host accuracy.
func TestDPUAccuracyEndToEnd(t *testing.T) {
	m, ds := trainForKernel(t)
	r := newRunner(t, 2, m, true, 16)
	imgs := ds.Test[:32]
	preds, _, err := r.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	hostHits, dpuHits := 0, 0
	for i := range imgs {
		if m.Predict(&imgs[i]) == imgs[i].Label {
			hostHits++
		}
		if preds[i] == imgs[i].Label {
			dpuHits++
		}
	}
	// The LUT and the float threshold encode the same function here, so
	// accuracy must match exactly.
	if dpuHits != hostHits {
		t.Errorf("DPU hits %d != host hits %d", dpuHits, hostHits)
	}
}

// TestCellTableMatchesCellFormula: every entry of the cell table equals
// the host reference on the patch it indexes — convPoolRows, then the
// act bit at the pooled value's popcount — for random filter words (bits
// above the ninth included) and activation masks no BN fold emits, not
// monotone in the pooled value. Each reference image carries 49
// patches, one per pooled cell at an even row and column: those cells'
// patches share no pixel.
func TestCellTableMatchesCellFormula(t *testing.T) {
	const side = (PoolSize + 1) / 2 // disjoint patches per image row
	rng := rand.New(rand.NewSource(29))
	for _, nf := range []int{1, 3, 8} {
		k := cellKey{nf: nf}
		for f := 0; f < nf; f++ {
			k.filters[f] = uint16(rng.Uint32())
			k.act[f] = rng.Uint32() & 0x3FF
		}
		k.act[0] = 0x155 // set at popcounts 0, 2, 4, 6 and 8 only
		tab := newCellTable(k)
		for base := 0; base < len(tab.cells); base += side * side {
			n := min(side*side, len(tab.cells)-base)
			var rows [mnist.Side]uint32
			for i := 0; i < n; i++ {
				for j := 0; j < 4; j++ {
					rows[i/side*4+j] |= uint32((base+i)>>(4*j)&15) << uint(i%side*4)
				}
			}
			pooled := convPoolRows(&rows, k.filters[:nf])
			for i := 0; i < n; i++ {
				cell := i/side*2*PoolSize + i%side*2
				var want byte
				for f := 0; f < nf; f++ {
					pop := (ConvMax - int(pooled[cell*nf+f])) / 2
					want |= byte(k.act[f]>>uint(pop)&1) << uint(f)
				}
				if got := tab.cells[base+i]; got != want {
					t.Fatalf("F=%d patch %#04x: table %#02x, reference %#02x", nf, base+i, got, want)
				}
			}
		}
	}
}

// TestMinBytes holds the lane-wise minimum to the scalar one on every
// pair of lane values it is specified for, at every lane.
func TestMinBytes(t *testing.T) {
	for x := uint64(0); x < 128; x++ {
		for y := uint64(0); y < 128; y++ {
			// Lane k holds (x, y); its neighbours hold the swapped pair,
			// so a borrow or a mask leaking across lanes shows.
			var a, b, want uint64
			for k := uint(0); k < 8; k++ {
				p, q := x, y
				if k%2 == 1 {
					p, q = y, x
				}
				a |= p << (8 * k)
				b |= q << (8 * k)
				want |= min(p, q) << (8 * k)
			}
			if got := minBytes(a, b); got != want {
				t.Fatalf("minBytes(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}
