// Package core is the thesis's first contribution as a reusable
// framework: "a standardized framework for adapting and implementing any
// CNN application within the UPMEM PIM system" (chapter 4).
//
// It ties the substrates together behind one deployment surface:
//
//   - an Accelerator owning the DPU system;
//   - the two operation-mapping schemes the thesis develops —
//     multiple images per DPU (eBNN, §4.1.3) and multiple DPUs per image
//     (YOLOv3's row-per-DPU GEMM, §4.2.3) — with a scheme chooser driven
//     by the WRAM-fit criterion that separates them;
//   - an Advisor that turns execution profiles into the §4.3.3
//     implementation takeaways (remove floating point, thread to the
//     pipeline depth, compile -O3, prefer WRAM over MRAM accesses).
package core

import (
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
)

// Scheme is an operation-mapping strategy for CNNs on the DPU system.
type Scheme int

// The two mapping schemes of chapter 4.
const (
	// MultiImagePerDPU batches many small inferences into each DPU and
	// uses tasklets as per-image threads (eBNN, §4.1.3).
	MultiImagePerDPU Scheme = iota + 1
	// MultiDPUPerImage spreads one inference across many DPUs, one
	// output row each (YOLOv3, §4.2.3 / Fig 4.6).
	MultiDPUPerImage
)

func (s Scheme) String() string {
	switch s {
	case MultiImagePerDPU:
		return "multi-image-per-DPU"
	case MultiDPUPerImage:
		return "multi-DPU-per-image"
	default:
		return "scheme?"
	}
}

// ChooseScheme picks the mapping for a workload: if a whole inference's
// working set fits comfortably in one tasklet's WRAM share, batch images
// per DPU; otherwise spread the inference over DPUs. This is exactly the
// eBNN-vs-YOLOv3 split the thesis describes ("eBNN's image sizes were so
// small, there was plenty of memory space within the DPUs. YOLOv3
// contained large convolution buffers ... that made it difficult to do
// the same", §6.1). A tasklet count below 1 has no WRAM share to fit
// anything in.
func ChooseScheme(workingSetBytes int64, tasklets int, cfg dpu.Config) Scheme {
	if tasklets < 1 {
		return MultiDPUPerImage
	}
	share := int64(cfg.WRAMSize) / int64(tasklets)
	if workingSetBytes <= share {
		return MultiImagePerDPU
	}
	return MultiDPUPerImage
}

// Accelerator owns a simulated UPMEM system and deploys CNNs onto it.
type Accelerator struct {
	sys *host.System
}

// Options configures an Accelerator.
type Options struct {
	// DPUs is the system size (default 64; the full system is 2,560).
	DPUs int
	// Opt is the dpu-clang optimization level. The zero value is O0;
	// §4.3.3 recommends O3.
	Opt dpu.OptLevel
}

// NewAccelerator allocates the DPU system. host.NewSystem refuses a DPU
// count outside 1..dpu.SystemDPUs before it allocates anything.
func NewAccelerator(opts Options) (*Accelerator, error) {
	if opts.DPUs == 0 {
		opts.DPUs = 64
	}
	sys, err := host.NewSystem(opts.DPUs, host.DefaultConfig(opts.Opt))
	if err != nil {
		return nil, err
	}
	return &Accelerator{sys: sys}, nil
}

// System exposes the underlying host runtime.
func (a *Accelerator) System() *host.System { return a.sys }

// DeployEBNN trains nothing — it deploys an already-trained model with
// the multi-image-per-DPU scheme. useLUT selects the Fig 4.2(b)
// architecture with the host-built BN-BinAct lookup table. tasklets 0
// asks the auto-mapper to choose the thread count from the cost model
// (plan.FixedEBNNTasklets is the hand-tuned constant it replaces).
func (a *Accelerator) DeployEBNN(m *ebnn.Model, useLUT bool, tasklets int) (*ebnn.Runner, error) {
	if tasklets == 0 {
		r, _, err := ebnn.NewPlannedRunner(a.sys, m, useLUT, nil)
		return r, err
	}
	return ebnn.NewRunner(a.sys, m, useLUT, tasklets)
}

// Deploy sizes a GEMM runner for any built network's largest layer with
// the multi-DPU-per-image scheme (YOLOv3's row-per-DPU mapping, §4.2.3,
// which AlexNet and ResNet-18 share): the WRAM-tiled kernel (§4.3.4) at
// plan.FixedTasklets, or, with autoMap, the cost-model planner choosing
// every layer's tasklet count and wave width. Results are bit-identical
// either way. Run the network's own Forward with the returned runner
// (ForwardBatch after Runner.EnableBatch).
func (a *Accelerator) Deploy(g *nn.Network, autoMap bool) (*gemm.Runner, error) {
	maxK, maxN, _ := g.GEMMBounds()
	cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN}
	if autoMap {
		cfg.Planner = plan.New(a.sys)
	} else {
		cfg.Tasklets = plan.FixedTasklets
	}
	return gemm.NewRunner(a.sys, cfg)
}
