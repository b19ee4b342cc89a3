package gemm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

func randMat(rng *rand.Rand, n int, lim int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(rng.Intn(2*lim+1) - lim)
	}
	return out
}

// pipelineProblem is a deterministic m×k by k×n operand pair.
func pipelineProblem(m, n, k int) (a, b []int16) {
	a = make([]int16, m*k)
	b = make([]int16, k*n)
	for i := range a {
		a[i] = int16(i%13 - 6)
	}
	for i := range b {
		b[i] = int16(i%9 - 4)
	}
	return a, b
}

// checkC fails the test at the first element where got differs from want.
func checkC(t testing.TB, what string, got, want []int16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len(C) = %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: C[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestReferenceAgainstFloat: with small values (no clamping) /32 is the
// only quantization, so C is the float product truncated toward zero.
func TestReferenceAgainstFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n, k := 3, 5, 4
	a, b := randMat(rng, m*k, 10), randMat(rng, k*n, 10)
	got, err := Reference(m, n, k, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int16, m*n)
	for i := range want {
		var dot float64
		for kk := 0; kk < k; kk++ {
			dot += float64(a[i/n*k+kk]) * float64(b[kk*n+i%n])
		}
		want[i] = int16(int32(dot) / 32) // the products are exact; Go truncates toward zero like C
	}
	checkC(t, "float", got, want)
}

// TestPropertyZeroMatrix: a zero A or a zero B yields an all-zero C.
func TestPropertyZeroMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 3, 12, 8
	zb, _ := Reference(m, n, k, 1, randMat(rng, m*k, 1000), make([]int16, k*n))
	za, _ := Reference(m, n, k, 1, make([]int16, m*k), randMat(rng, k*n, 1000))
	checkC(t, "zero B", zb, make([]int16, m*n))
	checkC(t, "zero A", za, make([]int16, m*n))
}

func TestReferenceClamps(t *testing.T) {
	// A single huge dot product must clamp to ±32767.
	k := 100
	a := make([]int16, k)
	b := make([]int16, k)
	for i := range a {
		a[i] = 1000
		b[i] = 1000
	}
	c, err := Reference(1, 1, k, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 32767 {
		t.Errorf("positive clamp = %d", c[0])
	}
	for i := range b {
		b[i] = -1000
	}
	c, _ = Reference(1, 1, k, 1, a, b)
	if c[0] != -32767 {
		t.Errorf("negative clamp = %d (absolutemax clamps to -limit)", c[0])
	}
}

// TestReferenceAlpha: alpha scales the sums before the /32.
func TestReferenceAlpha(t *testing.T) {
	a := []int16{2, 3}
	b := []int16{4, 5, 6, 7}
	// alpha=2: C[0] = 2*(2*4+3*6)/32 = 52/32 = 1 (trunc)
	c, err := Reference(1, 2, 2, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 52/32 || c[1] != (2*(2*5+3*7))/32 {
		t.Errorf("alpha GEMM = %v", c)
	}
}

// TestPropertyAlphaScaling: for operands small enough that nothing
// clamps, alpha = 2 equals doubling A.
func TestPropertyAlphaScaling(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const m, n, k = 2, 10, 6
		a, b := randMat(rng, m*k, 50), randMat(rng, k*n, 50)
		a2 := make([]int16, len(a))
		for i, v := range a {
			a2[i] = 2 * v
		}
		c1, _ := Reference(m, n, k, 2, a, b)
		c2, _ := Reference(m, n, k, 1, a2, b)
		checkC(t, fmt.Sprintf("seed %d: alpha 2 against 2A", seed), c1, c2)
	}
}

// Property: row i of the result depends only on row i of A.
func TestReferenceRowIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 3, 4, 5
		a := randMat(rng, m*k, 50)
		b := randMat(rng, k*n, 50)
		c1, _ := Reference(m, n, k, 1, a, b)
		// Perturb row 2 of A; rows 0 and 1 of C must not change.
		a2 := append([]int16(nil), a...)
		a2[2*k] += 7
		c2, _ := Reference(m, n, k, 1, a2, b)
		for i := 0; i < 2*n; i++ {
			if c1[i] != c2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func newGEMMRunner(t *testing.T, nDPU int, cfg RunnerConfig) *Runner {
	t.Helper()
	sys := newSystem(t, nDPU, dpu.O0)
	r, err := NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// expectRejected fails t for each call of group that is not an error:
// malformed runner configs, Reference operands, shapes over the runner's
// bounds and out-of-order or malformed batch calls.
func expectRejected(t *testing.T, group string) {
	sys := newSystem(t, 1, dpu.O0)
	badConfig := func(cfg RunnerConfig) func() error {
		return func() error { _, err := NewRunner(sys, cfg); return err }
	}
	small := RunnerConfig{MaxK: 8, MaxN: 8, Tasklets: 2}
	rows, batch := newGEMMRunner(t, 1, small), newBatchRunner(t, 2, 4, small)
	a, b := make([]int16, 5*16), make([]int16, 16*8)
	b8 := b[:8*8]
	for _, c := range []struct {
		group, name string
		call        func() error
	}{
		{"config", "MaxK 0", badConfig(RunnerConfig{MaxK: 0, MaxN: 4, Tasklets: 1})},
		{"config", "0 tasklets", badConfig(RunnerConfig{MaxK: 4, MaxN: 4, Tasklets: 0})},
		{"config", "99 tasklets", badConfig(RunnerConfig{MaxK: 4, MaxN: 4, Tasklets: 99})},
		{"config", "TileCols 3", badConfig(RunnerConfig{MaxK: 4, MaxN: 4, Tasklets: 1, TileCols: 3})},
		{"config", "TileCols 4096", badConfig(RunnerConfig{MaxK: 4, MaxN: 4, Tasklets: 1, TileCols: 4096})},
		{"reference", "Reference zero dims", func() error { _, err := Reference(0, 1, 1, 1, nil, nil); return err }},
		{"reference", "Reference short A", func() error { _, err := Reference(1, 1, 2, 1, []int16{1}, []int16{1, 2}); return err }},
		{"reference", "Reference short B", func() error { _, err := Reference(1, 2, 1, 1, []int16{1}, []int16{1}); return err }},
		{"bounds", "K over bound", func() error { _, _, err := rows.Multiply(1, 8, 16, 1, a[:16], b); return err }},
		{"bounds", "N over bound", func() error { _, _, err := rows.Multiply(1, 16, 1, 1, a[:1], b[:16]); return err }},
		{"unenabled", "MultiplyBatch without EnableBatch", func() error { _, _, err := rows.MultiplyBatch(2, 8, 8, 1, a[:16], [][]int16{b8}); return err }},
		{"enableBatch", "EnableBatch(0)", func() error { return rows.EnableBatch(0) }},
		{"enableBatch", "double EnableBatch", func() error { return batch.EnableBatch(4) }},
		{"batch", "M over batch bound", func() error { _, _, err := batch.MultiplyBatch(5, 8, 8, 1, a[:40], [][]int16{b8}); return err }},
		{"batch", "more images than DPUs", func() error { _, _, err := batch.MultiplyBatch(4, 8, 8, 1, a[:32], [][]int16{b8, b8, b8}); return err }},
		{"batch", "short batch B", func() error { _, _, err := batch.MultiplyBatch(4, 8, 8, 1, a[:32], [][]int16{b8, b8[:10]}); return err }},
		{"batch", "empty batch", func() error { _, _, err := batch.MultiplyBatch(4, 8, 8, 1, a[:32], nil); return err }},
	} {
		if c.group == group && c.call() == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRunnerValidation(t *testing.T)            { expectRejected(t, "config") }
func TestReferenceValidation(t *testing.T)         { expectRejected(t, "reference") }
func TestMultiplyBoundsChecked(t *testing.T)       { expectRejected(t, "bounds") }
func TestMultiplyBatchRequiresEnable(t *testing.T) { expectRejected(t, "unenabled") }
func TestEnableBatchValidation(t *testing.T)       { expectRejected(t, "enableBatch") }
func TestBatchValidation(t *testing.T)             { expectRejected(t, "batch") }

// TestDPUMatchesReference: the tiled kernel must agree with the host
// Algorithm 2 bit-for-bit across awkward shapes.
func TestDPUMatchesReference(t *testing.T) { dpuMatchesReference(t, false) }

// TestNaiveMatchesReference: so must the thesis-faithful naive kernel.
func TestNaiveMatchesReference(t *testing.T) { dpuMatchesReference(t, true) }

func dpuMatchesReference(t *testing.T, naive bool) {
	shapes := []struct{ m, n, k int }{
		{1, 8, 4},
		{1, 7, 5},    // fewer columns than tasklets for some tasklets
		{3, 300, 7},  // N not a tile multiple
		{5, 256, 16}, // exact tiles
		{2, 513, 33}, // odd everything
		{7, 64, 100}, // K heavy
		{13, 40, 3},  // M > DPUs: multiple waves
	}
	rng := rand.New(rand.NewSource(7))
	r := newGEMMRunner(t, 4, RunnerConfig{MaxK: 128, MaxN: 600, Tasklets: 8, TileCols: 64, Naive: naive})
	for _, s := range shapes {
		a := randMat(rng, s.m*s.k, 100)
		b := randMat(rng, s.k*s.n, 100)
		want, err := Reference(s.m, s.n, s.k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("naive=%v %dx%dx%d", naive, s.m, s.n, s.k)
		got, st, err := r.Multiply(s.m, s.n, s.k, 1, a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkC(t, name, got, want)
		if st.DPUsUsed != min(s.m, 4) {
			t.Errorf("%s: used %d DPUs, want %d", name, st.DPUsUsed, min(s.m, 4))
		}
	}
}

// TestMultiplyFillMatchesMultiply: a fill that writes B and dirties the
// padding columns with 0xEE must leave exactly what Multiply leaves — C
// (written over a stale destination), Stats, TransferStats, per-DPU
// cycles and the B matrix in MRAM — for the tiled and the naive kernel,
// over shapes with and without padding and with more rows than DPUs. A
// destination of the wrong length is an error.
func TestMultiplyFillMatchesMultiply(t *testing.T) {
	shapes := []struct{ m, n, k int }{{3, 30, 7}, {6, 64, 5}, {2, 513, 33}}
	for _, naive := range []bool{false, true} {
		cfg := RunnerConfig{MaxK: 64, MaxN: 600, Tasklets: 4, TileCols: 64, Naive: naive}
		plain, filled := newGEMMRunner(t, 4, cfg), newGEMMRunner(t, 4, cfg)
		rng := rand.New(rand.NewSource(5))
		for _, s := range shapes {
			a, b := randMat(rng, s.m*s.k, 300), randMat(rng, s.k*s.n, 300)
			want, wst, err := plain.Multiply(s.m, s.n, s.k, 2, a, b)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int16, s.m*s.n)
			for i := range got {
				got[i] = 0x7777
			}
			if _, err := filled.MultiplyFill(Layer{}, s.m, s.n, s.k, 2, a, got[1:], nil); err == nil {
				t.Fatal("short C accepted")
			}
			gst, err := filled.MultiplyFill(Layer{}, s.m, s.n, s.k, 2, a, got, func(dst []byte, stride int) {
				packRows(dst, stride*2, b, s.k, s.n)
				for kk := 0; kk < s.k; kk++ {
					for j := 2 * s.n; j < 2*stride; j++ {
						dst[kk*stride*2+j] = 0xEE
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("naive=%v %dx%dx%d", naive, s.m, s.n, s.k)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gst, wst) {
				t.Fatalf("%s: C or Stats differ: %+v, want %+v", name, gst, wst)
			}
			if gx, wx := filled.sys.TransferStats(), plain.sys.TransferStats(); gx != wx {
				t.Fatalf("%s: TransferStats %+v, want %+v", name, gx, wx)
			}
			bBytes := s.k * pad4(s.n) * 2
			gb, wb := make([]byte, bBytes), make([]byte, bBytes)
			for i := 0; i < 4; i++ {
				if g, w := filled.sys.DPU(i).TotalCycles(), plain.sys.DPU(i).TotalCycles(); g != w {
					t.Fatalf("%s: DPU %d cycles %d, want %d", name, i, g, w)
				}
				if _, err := filled.sys.DPU(i).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: filled.bOff, Buf: gb}}); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.sys.DPU(i).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: plain.bOff, Buf: wb}}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: DPU %d holds a different B matrix", name, i)
				}
			}
		}
	}
}

// Large magnitudes force both the int32 wrap path and the clamp, small
// ones leave C unclamped; every alpha, at an odd K, holds the kernel's one
// multiply of each C row's sums by alpha (not of each A element) to
// Reference in the row and the batch mapping.
func TestDPUMatchesReferenceWithAlphaAndWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m, n, k = 2, 64, 63
	r := newBatchRunner(t, 2, m, RunnerConfig{MaxK: 64, MaxN: 64, Tasklets: 4, TileCols: 16})
	for _, mag := range []int{40, 32000} {
		a, b := randMat(rng, m*k, mag), randMat(rng, k*n, mag)
		for _, alpha := range []int16{-32768, -1, 3, 32767} {
			want, _ := Reference(m, n, k, alpha, a, b)
			got, _, err := r.Multiply(m, n, k, alpha, a, b)
			if err != nil {
				t.Fatal(err)
			}
			batch, _, err := r.MultiplyBatch(m, n, k, alpha, a, [][]int16{b})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("|A|,|B| <= %d, alpha %d", mag, alpha)
			checkC(t, name+" row", got, want)
			checkC(t, name+" batch", batch[0], want)
		}
	}
}

// TestGEMMTaskletSaturation reproduces the YOLOv3 curve of Fig 4.7(a):
// speedup grows with tasklets and saturates at the 11-stage pipeline.
func TestGEMMTaskletSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 1, 2048, 16
	a := randMat(rng, m*k, 100)
	b := randMat(rng, k*n, 100)

	cycles := map[int]uint64{}
	for _, tl := range []int{1, 2, 4, 8, 11, 16} {
		r := newGEMMRunner(t, 1, RunnerConfig{MaxK: k, MaxN: n, Tasklets: tl, TileCols: 64})
		_, st, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		cycles[tl] = st.Cycles
	}
	speedup := func(tl int) float64 { return float64(cycles[1]) / float64(cycles[tl]) }
	if !(speedup(2) > 1.5 && speedup(4) > 3 && speedup(8) > 5) {
		t.Errorf("speedups: 2->%.1f 4->%.1f 8->%.1f", speedup(2), speedup(4), speedup(8))
	}
	// Saturation: 16 tasklets gain little over 11.
	if gain := speedup(16) / speedup(11); gain > 1.15 {
		t.Errorf("16 vs 11 tasklets gained %.2fx; should saturate at the pipeline depth", gain)
	}
	t.Logf("Fig 4.7a (YOLO GEMM): speedups %v", map[int]float64{
		2: speedup(2), 4: speedup(4), 8: speedup(8), 11: speedup(11), 16: speedup(16)})
}

// TestGEMMOptimizationLevels reproduces the Fig 4.7(b) ingredient: O3
// beats O0 (inline 16-bit multiplies, no per-statement overhead).
func TestGEMMOptimizationLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, n, k = 1, 512, 16
	a := randMat(rng, m*k, 100)
	b := randMat(rng, k*n, 100)

	cyclesAt := func(opt dpu.OptLevel) uint64 {
		sys := newSystem(t, 1, opt)
		r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 64})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	o0, o3 := cyclesAt(dpu.O0), cyclesAt(dpu.O3)
	if o3 >= o0 {
		t.Errorf("O3 (%d cycles) not faster than O0 (%d)", o3, o0)
	}
	if ratio := float64(o0) / float64(o3); ratio < 1.5 {
		t.Errorf("O0/O3 ratio %.2f too small; 16-bit multiply must collapse at O3", ratio)
	}
}

// TestGEMMIsMRAMBound verifies the §4.3.3 observation: the GEMM kernel's
// B matrix streams from MRAM, so DMA cycles are a significant share.
func TestGEMMIsMRAMBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, n, k = 1, 1024, 64
	a := randMat(rng, m*k, 100)
	b := randMat(rng, k*n, 100)
	sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O3))
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 11, TileCols: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
		t.Fatal(err)
	}
	// Re-run on the bare DPU to read per-launch stats.
	st, err := sys.DPU(0).Launch(11, r.blockKernel(false))
	if err != nil {
		t.Fatal(err)
	}
	slots, dma := st.IssueSlots, st.DMACycles
	if dma == 0 {
		t.Fatal("no DMA cycles recorded")
	}
	frac := float64(dma) / float64(slots+dma)
	if frac < 0.05 {
		t.Errorf("DMA fraction %.3f too small for an MRAM-bound kernel", frac)
	}
	t.Logf("GEMM O3: DMA fraction of work = %.2f", frac)
}
