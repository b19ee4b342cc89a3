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
	"fmt"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
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
	// Opt is the dpu-clang optimization level (default O3 per §4.3.3).
	Opt dpu.OptLevel
}

// NewAccelerator allocates the DPU system.
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

// EBNNApp is a deployed eBNN classifier.
type EBNNApp struct {
	runner *ebnn.Runner
	model  *ebnn.Model
}

// DeployEBNN trains nothing — it deploys an already-trained model with
// the multi-image-per-DPU scheme. useLUT selects the Fig 4.2(b)
// architecture with the host-built BN-BinAct lookup table. tasklets 0
// asks the auto-mapper to choose the thread count from the cost model
// (plan.FixedEBNNTasklets is the hand-tuned constant it replaces).
func (a *Accelerator) DeployEBNN(m *ebnn.Model, useLUT bool, tasklets int) (*EBNNApp, error) {
	if tasklets == 0 {
		r, _, err := ebnn.NewPlannedRunner(a.sys, m, useLUT, nil)
		if err != nil {
			return nil, err
		}
		return &EBNNApp{runner: r, model: m}, nil
	}
	r, err := ebnn.NewRunner(a.sys, m, useLUT, tasklets)
	if err != nil {
		return nil, err
	}
	return &EBNNApp{runner: r, model: m}, nil
}

// Classify runs inference on the DPU system and returns predicted labels.
func (app *EBNNApp) Classify(images []mnist.Image) ([]int, ebnn.BatchStats, error) {
	return app.runner.Infer(images)
}

// Model returns the deployed model.
func (app *EBNNApp) Model() *ebnn.Model { return app.model }

// YOLOApp is a deployed YOLOv3 detector.
type YOLOApp struct {
	net    *yolo.Network
	runner *gemm.Runner
}

// YOLOOptions tunes the detector deployment (shared by the AlexNet and
// ResNet deploys, which map the same way).
type YOLOOptions struct {
	// Tasklets per DPU (default plan.FixedTasklets = the pipeline
	// depth). Under AutoMap a nonzero value bounds the planner's sweep
	// instead of pinning the count.
	Tasklets int
	// Naive selects the thesis-faithful MRAM-bound kernel; the default
	// is the WRAM-tiled improvement (§4.3.4).
	Naive bool
	// TileCols for the tiled kernel (default gemm.DefaultTileCols).
	TileCols int
	// AutoMap wires the cost-model planner into the runner: every
	// layer's tasklet count and wave width come from
	// plan.Planner instead of the fixed constants above. Results stay
	// bit-identical — the planner only picks among mapping axes.
	AutoMap bool
}

// gemmRunner sizes a GEMM runner for a built network's largest layer,
// applying the fixed-constant fallback or the auto-mapper per opts —
// the multi-DPU-per-image deployment all three GEMM-backed networks
// share.
func (a *Accelerator) gemmRunner(net *nn.Network, opts YOLOOptions) (*gemm.Runner, error) {
	maxK, maxN, _ := net.GEMMBounds()
	cfg := gemm.RunnerConfig{
		MaxK:     maxK,
		MaxN:     maxN,
		Tasklets: opts.Tasklets,
		TileCols: opts.TileCols,
		Naive:    opts.Naive,
	}
	if opts.AutoMap {
		cfg.Planner = plan.New(a.sys)
	} else if cfg.Tasklets == 0 {
		cfg.Tasklets = plan.FixedTasklets
	}
	return gemm.NewRunner(a.sys, cfg)
}

// DeployYOLO builds the network and deploys it with the
// multi-DPU-per-image scheme.
func (a *Accelerator) DeployYOLO(cfg yolo.Config, opts YOLOOptions) (*YOLOApp, error) {
	net, err := yolo.New(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := a.gemmRunner(net.Network, opts)
	if err != nil {
		return nil, err
	}
	return &YOLOApp{net: net, runner: runner}, nil
}

// Network returns the deployed network.
func (app *YOLOApp) Network() *yolo.Network { return app.net }

// Detect runs one image through the network, convolutions on the DPUs.
func (app *YOLOApp) Detect(img *yolo.Tensor) (*yolo.Result, *yolo.ForwardStats, error) {
	return app.net.Forward(img, app.runner)
}

// DetectHost runs the bit-exact host reference (no DPUs), for
// verification.
func (app *YOLOApp) DetectHost(img *yolo.Tensor) (*yolo.Result, error) {
	res, _, err := app.net.Forward(img, nil)
	return res, err
}

// AlexNetApp is a deployed AlexNet classifier.
type AlexNetApp struct {
	net    *alexnet.Network
	runner *gemm.Runner
}

// DeployAlexNet builds the §6.1 extension workload — the network the
// chapter 5 model prices — with the multi-DPU-per-image scheme for both
// conv and FC layers.
func (a *Accelerator) DeployAlexNet(cfg alexnet.Config, opts YOLOOptions) (*AlexNetApp, error) {
	net, err := alexnet.New(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := a.gemmRunner(net.Network, opts)
	if err != nil {
		return nil, err
	}
	return &AlexNetApp{net: net, runner: runner}, nil
}

// Network returns the deployed network.
func (app *AlexNetApp) Network() *alexnet.Network { return app.net }

// Classify runs one image on the DPUs, returning the argmax class, the
// raw logits and the forward statistics.
func (app *AlexNetApp) Classify(img *tensor.Tensor) (int, []int16, *alexnet.ForwardStats, error) {
	logits, stats, err := app.net.Forward(img, app.runner)
	if err != nil {
		return 0, nil, nil, err
	}
	return alexnet.Predict(logits), logits, stats, nil
}

// ResNetApp is a deployed ResNet-18 classifier.
type ResNetApp struct {
	net    *resnet.Network
	runner *gemm.Runner
}

// DeployResNet builds the residual network that completes the §6.1
// "AlexNet to ResNet" span, deployed like the other GEMM-backed workloads.
func (a *Accelerator) DeployResNet(cfg resnet.Config, opts YOLOOptions) (*ResNetApp, error) {
	net, err := resnet.New(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := a.gemmRunner(net.Network, opts)
	if err != nil {
		return nil, err
	}
	return &ResNetApp{net: net, runner: runner}, nil
}

// Network returns the deployed network.
func (app *ResNetApp) Network() *resnet.Network { return app.net }

// Classify runs one image on the DPUs.
func (app *ResNetApp) Classify(img *tensor.Tensor) (int, []int16, *resnet.ForwardStats, error) {
	logits, stats, err := app.net.Forward(img, app.runner)
	if err != nil {
		return 0, nil, nil, err
	}
	return resnet.Predict(logits), logits, stats, nil
}

// Validate sanity-checks a deployment option set early.
func (o Options) Validate() error {
	if o.DPUs < 0 || o.DPUs > dpu.SystemDPUs {
		return fmt.Errorf("core: DPUs %d outside 0..%d", o.DPUs, dpu.SystemDPUs)
	}
	return nil
}
