// Package pimdnn reproduces, in pure Go, the system of the M.S. thesis
// "Implementation and Evaluation of Deep Neural Networks in Commercially
// Available Processing in Memory Hardware" (Prangon Das, RIT, 2022): CNN
// inference mapped onto the UPMEM processing-in-memory architecture, plus
// the thesis's analytic model for comparing PIM designs.
//
// Since no UPMEM hardware or SDK is available to Go, the library ships a
// cycle-faithful simulator of the DPU (tasklets, the 11-stage revolver
// pipeline, WRAM/MRAM with the Eq 3.4 DMA cost, software floating point,
// dpu-clang-style optimization levels) together with the host runtime,
// the two CNN workloads (eBNN with the LUT transform of Algorithm 1, and
// a quantized YOLOv3 whose convolutions run as Algorithm 2 GEMMs spread
// row-per-DPU), and the chapter 5 performance model of bitwise, LUT and
// pipelined-CPU PIMs.
//
// This file is the public facade; the implementation lives under
// internal/ (see DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-versus-measured record).
package pimdnn

import (
	"pimdnn/internal/alexnet"
	"pimdnn/internal/core"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/mnist"
	"pimdnn/internal/model"
	"pimdnn/internal/resnet"
	"pimdnn/internal/yolo"
)

// Re-exported types: the deployment framework.
type (
	// Accelerator owns a simulated UPMEM system and deploys CNNs.
	Accelerator = core.Accelerator
	// Options configures an Accelerator.
	Options = core.Options
	// Scheme is an operation-mapping strategy.
	Scheme = core.Scheme
	// Recommendation is an Advisor finding.
	Recommendation = core.Recommendation
	// Advisor analyzes runs against the §4.3.3 takeaways.
	Advisor = core.Advisor
	// RunInfo describes one execution for the Advisor.
	RunInfo = core.RunInfo
	// AlexNetConfig parameterizes the AlexNet build.
	AlexNetConfig = alexnet.Config
	// ResNetConfig parameterizes the ResNet-18 build.
	ResNetConfig = resnet.Config
)

// Re-exported types: workloads and the analytic model.
type (
	// EBNNModel is a trained embedded binarized neural network.
	EBNNModel = ebnn.Model
	// EBNNTrainConfig controls host-side eBNN training.
	EBNNTrainConfig = ebnn.TrainConfig
	// Image is one 28×28 labeled digit.
	Image = mnist.Image
	// Dataset is a train/test split of digits.
	Dataset = mnist.Dataset
	// YOLOConfig parameterizes the YOLOv3 build.
	YOLOConfig = yolo.Config
	// YOLONetwork is a built, weighted YOLOv3.
	YOLONetwork = yolo.Network
	// Tensor is a quantized activation tensor.
	Tensor = yolo.Tensor
	// Detection is one decoded box.
	Detection = yolo.Detection
	// PIM is one architecture in the chapter 5 analytic model.
	PIM = model.PIM
	// Device is one row of the Table 5.4 benchmarking catalog.
	Device = model.Device
	// OptLevel models the dpu-clang -O0..-O3 settings.
	OptLevel = dpu.OptLevel
)

// Optimization levels (dpu-clang -O0..-O3).
const (
	O0 = dpu.O0
	O1 = dpu.O1
	O2 = dpu.O2
	O3 = dpu.O3
)

// Mapping schemes (chapter 4).
const (
	MultiImagePerDPU = core.MultiImagePerDPU
	MultiDPUPerImage = core.MultiDPUPerImage
)

// NewAccelerator allocates a simulated DPU system.
func NewAccelerator(opts Options) (*Accelerator, error) {
	return core.NewAccelerator(opts)
}

// NewAdvisor returns an advisor with the default thresholds.
func NewAdvisor() *Advisor { return core.NewAdvisor() }

// ChooseScheme picks a mapping scheme from the WRAM-fit criterion.
func ChooseScheme(workingSetBytes int64, tasklets int) Scheme {
	return core.ChooseScheme(workingSetBytes, tasklets, dpu.DefaultConfig(dpu.O3))
}

// LoadDigits generates the deterministic synthetic digit dataset.
func LoadDigits(trainN, testN int, seed int64) Dataset {
	return mnist.Load(trainN, testN, seed)
}

// TrainEBNN trains an eBNN on the host (random binary filters, fitted
// batch-norm statistics, SGD softmax readout).
func TrainEBNN(ds Dataset, cfg EBNNTrainConfig) (*EBNNModel, error) {
	return ebnn.Train(ds, cfg)
}

// DefaultEBNNTrainConfig returns the configuration used by the
// experiments.
func DefaultEBNNTrainConfig() EBNNTrainConfig { return ebnn.DefaultTrainConfig() }

// YOLOFull returns the thesis's network configuration (416×416, 80
// classes, 75 convolutional layers).
func YOLOFull() YOLOConfig { return yolo.FullConfig() }

// YOLOLite returns a reduced network with the same 75-conv graph, sized
// for simulation.
func YOLOLite() YOLOConfig { return yolo.LiteConfig() }

// AlexNetFull returns the canonical 227×227 ImageNet AlexNet — the
// workload priced by the chapter 5 model (Table 5.1).
func AlexNetFull() AlexNetConfig { return alexnet.FullConfig() }

// AlexNetLite returns a reduced AlexNet sized for simulation.
func AlexNetLite() AlexNetConfig { return alexnet.LiteConfig() }

// ResNetFull returns the canonical ResNet-18 (224×224, 1000 classes).
func ResNetFull() ResNetConfig { return resnet.FullConfig() }

// ResNetLite returns a reduced ResNet-18 sized for simulation.
func ResNetLite() ResNetConfig { return resnet.LiteConfig() }

// SyntheticScene renders a deterministic detector input image.
func SyntheticScene(size int, seed int64) *Tensor { return yolo.SyntheticScene(size, seed) }

// EstimateYOLOSeconds analytically estimates the network's single-image
// latency on the full 2,560-DPU system (threading + O3). naive selects
// the thesis-faithful MRAM-bound kernel behind the 65 s headline; false
// uses the WRAM-tiled improvement.
func EstimateYOLOSeconds(cfg YOLOConfig, naive bool) (float64, error) {
	net, err := yolo.New(cfg)
	if err != nil {
		return 0, err
	}
	ec := yolo.DefaultEstimateConfig()
	ec.Naive = naive
	total, _, err := net.EstimateSeconds(ec)
	return total, err
}

// PIMArchitectures returns the chapter 5 analytic models (pPIM, DRISA,
// UPMEM).
func PIMArchitectures() []PIM { return model.Architectures() }

// PIMDevices returns the Table 5.4 benchmarking catalog (seven devices).
func PIMDevices() []Device { return model.Table54Devices() }
