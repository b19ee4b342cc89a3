// Profiling benchmark for the simulator itself. The thesis's tables and
// figures are reproduced by cmd/experiments (pinned byte for byte by
// `make report-check`); wall-clock numbers come from `go run ./bench`.
package pimdnn_test

import (
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/yolo"
)

// BenchmarkSimulatorWallClock tracks how fast the simulator runs, as
// opposed to how fast the simulated hardware is: it drives the E7
// YOLO/GEMM forward path on a persistent system/runner pair and reports
// simulated DPU cycles retired per second of host wall-clock time.
// `make profile` profiles it; yolo.TestForwardSteadyStateAllocBound
// holds the same forward's allocations.
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
