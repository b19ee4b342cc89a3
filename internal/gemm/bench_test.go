package gemm

import (
	"fmt"
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

func benchProblem(m, n, k int) (a, b []int16) {
	rng := rand.New(rand.NewSource(99))
	return randMat(rng, m*k, 100), randMat(rng, k*n, 100)
}

// BenchmarkReference measures the host Algorithm 2 GEMM.
func BenchmarkReference(b *testing.B) {
	const m, n, k = 8, 1024, 64
	am, bm := benchProblem(m, n, k)
	b.SetBytes(int64(m * n * k * 2))
	for i := 0; i < b.N; i++ {
		if _, err := Reference(m, n, k, 1, am, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTiledKernel measures the simulated WRAM-tiled DPU GEMM and
// reports its modeled cycles.
func BenchmarkTiledKernel(b *testing.B) {
	const m, n, k = 2, 1024, 64
	am, bm := benchProblem(m, n, k)
	sys, _ := host.NewSystem(2, host.DefaultConfig(dpu.O3))
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 11, TileCols: 256})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Multiply(m, n, k, 1, am, bm)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
}

// BenchmarkNaiveKernel measures the thesis-faithful MRAM-bound kernel.
func BenchmarkNaiveKernel(b *testing.B) {
	const m, n, k = 2, 1024, 64
	am, bm := benchProblem(m, n, k)
	sys, _ := host.NewSystem(2, host.DefaultConfig(dpu.O3))
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 11, Naive: true})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Multiply(m, n, k, 1, am, bm)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
}

// BenchmarkBatchKernel measures the image-per-DPU mapping over a batch.
func BenchmarkBatchKernel(b *testing.B) {
	const m, n, k, images = 4, 512, 32, 4
	am, _ := benchProblem(m, n, k)
	rng := rand.New(rand.NewSource(7))
	bs := make([][]int16, images)
	for i := range bs {
		bs[i] = randMat(rng, k*n, 100)
	}
	sys, _ := host.NewSystem(images, host.DefaultConfig(dpu.O3))
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 11, TileCols: 128})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.EnableBatch(m); err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.MultiplyBatch(m, n, k, 1, am, bs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
}

// BenchmarkMultiWaveSync / BenchmarkMultiWavePipelined compare the
// synchronous wave loop against the double-buffered asynchronous path on
// a row count several times the DPU count (8 waves on 4 DPUs), the
// regime where pipelining can overlap host staging with device
// execution. Simulated dpu-cycles are identical by construction; only
// ns/op (wall-clock) differs.
func benchMultiWave(b *testing.B, mode host.PipelineMode) {
	const m, n, k = 32, 512, 64
	am, bm := benchProblem(m, n, k)
	sys, _ := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	r, err := NewRunner(sys, RunnerConfig{
		MaxK: k, MaxN: n, Tasklets: 11, TileCols: 256, Exec: exec.Config{Pipeline: mode},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Multiply(m, n, k, 1, am, bm)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
}

func BenchmarkMultiWaveSync(b *testing.B)      { benchMultiWave(b, host.PipelineOff) }
func BenchmarkMultiWavePipelined(b *testing.B) { benchMultiWave(b, host.PipelineOn) }

// BenchmarkResidentForward / BenchmarkRebroadcastForward compare the
// repeated-forward cost with weights MRAM-resident against the
// re-broadcast-every-call baseline — the PR 8 speedup claim, on the
// image-per-DPU mapping where the whole weight matrix is the per-call
// broadcast residency eliminates. Both variants run one untimed warmup
// and reset the transfer ledger, so xfer-bytes/op is steady-state
// traffic: the resident runner's excludes the weight matrix entirely.
func benchRepeatForward(b *testing.B, resident bool) {
	const m, n, k, images = 512, 16, 256, 4
	am, _ := benchProblem(m, n, k)
	rng := rand.New(rand.NewSource(7))
	bs := make([][]int16, images)
	for i := range bs {
		bs[i] = randMat(rng, k*n, 100)
	}
	sys, _ := host.NewSystem(images, host.DefaultConfig(dpu.O3))
	defer sys.Close()
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 11, TileCols: 16})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.EnableBatch(m); err != nil {
		b.Fatal(err)
	}
	if resident {
		cache, err := exec.NewWeightCache(sys, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		r.EnableResidency(cache, "bench")
		r.SetWeightLayer(0)
	}
	// Warmup primes the arena (resident) and the staging buffers (both).
	if _, _, err := r.MultiplyBatch(m, n, k, 1, am, bs); err != nil {
		b.Fatal(err)
	}
	sys.ResetClocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resident {
			r.SetWeightLayer(0)
		}
		if _, _, err := r.MultiplyBatch(m, n, k, 1, am, bs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sys.TransferStats()
	b.ReportMetric(float64(st.Bytes)/float64(b.N), "xfer-bytes/op")
	b.ReportMetric(float64(st.Time.Microseconds())/float64(b.N), "xfer-us/op")
}

func BenchmarkResidentForward(b *testing.B)    { benchRepeatForward(b, true) }
func BenchmarkRebroadcastForward(b *testing.B) { benchRepeatForward(b, false) }

// BenchmarkMACBlock is the multiply-accumulate rung by itself: one page
// run of packed B rows (as many as a 64 KB MRAM page holds, at most 512)
// MAC'd into one accumulator row, by the Go loops and by the kernel this
// host selected (the same loops where there is no AVX2), at the widths
// of an early conv layer, a late one and a 1-to-4-column FC layer. The
// metric is ns per multiply-accumulate.
func BenchmarkMACBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, lanes := range []int{1024, 64, 4} {
		rowBytes := lanes * 2
		rows := min(65536/rowBytes, 512)
		block := make([]byte, rows*rowBytes)
		rng.Read(block)
		apart := make([]int32, rows)
		for i := range apart {
			apart[i] = int32(rng.Uint32())
		}
		acc := make([]int32, lanes)
		for _, k := range []struct {
			name string
			mac  func(acc, apart []int32, block []byte, bstride int)
		}{{"go", macBlockGo}, {"selected", macBlock}} {
			b.Run(fmt.Sprintf("lanes=%d/%s", lanes, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.mac(acc, apart, block, rowBytes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*lanes), "ns/MAC")
			})
		}
	}
}
