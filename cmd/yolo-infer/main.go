// Command yolo-infer runs the chapter 4.2 experiments: quantized YOLOv3
// with convolutions delegated to the simulated UPMEM system as
// Algorithm 2 GEMMs, one output row per DPU (Fig 4.6). It reports
// per-layer latency, the threading × optimization matrix (Fig 4.7b), and
// the analytic full-size estimate against the thesis's 65 s headline.
package main

import (
	"flag"
	"fmt"
	"os"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/yolo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "yolo-infer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dpus     = flag.Int("dpus", 8, "DPUs to allocate")
		tasklets = flag.Int("tasklets", 11, "tasklets per DPU")
		optFlag  = flag.Int("O", 3, "optimization level 0-3")
		size     = flag.Int("size", 64, "input resolution (multiple of 32)")
		widthDiv = flag.Int("widthdiv", 32, "channel width divisor (1 = full YOLOv3)")
		naive    = flag.Bool("naive", true, "use the thesis-faithful MRAM-bound kernel")
		matrix   = flag.Bool("matrix", false, "run the Fig 4.7(b) threading x optimization matrix")
		estimate = flag.Bool("estimate-full", true, "print the analytic full-size (416x416) estimate")
		layers   = flag.Bool("layers", false, "print per-layer latencies")
	)
	flag.Parse()
	opt := dpu.OptLevel(*optFlag)

	cfg := yolo.Config{InputSize: *size, Classes: 4, WidthDiv: *widthDiv, Seed: 1}
	net, err := yolo.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d conv layers, %.3g MACs (full YOLOv3-416: 3.3e10)\n",
		yolo.CountConvLayers(net.Defs), float64(net.MACs()))

	forward := func(opt dpu.OptLevel, tl int) (*yolo.ForwardStats, error) {
		sys, err := host.NewSystem(*dpus, host.DefaultConfig(opt))
		if err != nil {
			return nil, err
		}
		maxK, maxN := net.GEMMBounds()
		runner, err := gemm.NewRunner(sys, gemm.RunnerConfig{
			MaxK: maxK, MaxN: maxN, Tasklets: tl, Naive: *naive,
		})
		if err != nil {
			return nil, err
		}
		img := yolo.SyntheticScene(*size, 7)
		res, stats, err := net.Forward(img, runner)
		if err != nil {
			return nil, err
		}
		_ = res
		return stats, nil
	}

	stats, err := forward(opt, *tasklets)
	if err != nil {
		return err
	}
	fmt.Printf("single image on %d DPUs, %d tasklets, %v, naive=%v: %.4g s DPU time, max layer %.4g s\n",
		*dpus, *tasklets, opt, *naive, stats.Seconds, stats.MaxLayerSeconds())

	if *layers {
		fmt.Printf("\n%-6s %-6s %8s %12s %12s\n", "layer", "kind", "DPUs", "cycles", "seconds")
		for _, l := range stats.Layers {
			fmt.Printf("%-6d %-6v %8d %12d %12.4g\n", l.Layer, net.Defs[l.Layer].Kind, l.DPUsUsed, l.Cycles, l.Seconds)
		}
	}

	if *matrix {
		fmt.Printf("\n== Fig 4.7(b): threading x optimization ==\n")
		for _, m := range []struct {
			opt dpu.OptLevel
			tl  int
		}{{dpu.O0, 1}, {dpu.O0, 11}, {dpu.O3, 1}, {dpu.O3, 11}} {
			st, err := forward(m.opt, m.tl)
			if err != nil {
				return err
			}
			fmt.Printf("%v, %2d tasklets: %.4g s\n", m.opt, m.tl, st.Seconds)
		}
	}

	if *estimate {
		fmt.Printf("\n== analytic full-size estimate (416x416, 80 classes, 2560 DPUs) ==\n")
		full, err := yolo.New(yolo.FullConfig())
		if err != nil {
			return err
		}
		ec := yolo.DefaultEstimateConfig()
		ec.Naive = *naive
		total, perLayer, err := full.EstimateSeconds(ec)
		if err != nil {
			return err
		}
		var maxL, sum float64
		for _, s := range perLayer {
			sum += s
			if s > maxL {
				maxL = s
			}
		}
		fmt.Printf("total %.1f s per image (paper best case: 65 s)\n", total)
		fmt.Printf("max layer %.2f s (paper: ~6 s), mean layer %.2f s (paper: ~0.9 s)\n",
			maxL, sum/float64(len(perLayer)))
	}
	return nil
}
