// Package alexnet implements a quantized AlexNet on the same substrate
// as the YOLOv3 workload: convolutions and fully-connected layers lower
// to the Algorithm 2 fixed-point GEMM and run on the simulated UPMEM
// system with the Fig 4.6 row-per-DPU mapping.
//
// AlexNet is the network the thesis's chapter 5 model is exercised on
// (Table 5.1 uses its operation count) and the first entry of the §6.1
// future-work list ("CNNs from AlexNet to ResNet"). Implementing it ties
// the two halves of the thesis together: the simulator runs the same
// workload the analytic model prices.
//
// The classic ungrouped geometry is used (grouping was a dual-GPU
// artifact); local response normalization is omitted as in most modern
// reimplementations. Weights are synthetic and seeded.
package alexnet

import (
	"fmt"

	"pimdnn/internal/gemm"
	"pimdnn/internal/nn"
	"pimdnn/internal/tensor"
)

// The layer vocabulary and forward statistics are the shared ones
// (internal/nn), under the names this package has always exported.
type (
	LayerKind    = nn.Kind
	LayerDef     = nn.Layer
	LayerStat    = nn.LayerStat
	ForwardStats = nn.ForwardStats
)

// Layer kinds.
const (
	Conv    = nn.Conv
	MaxPool = nn.MaxPool
	FC      = nn.FC
)

// Config parameterizes the build.
type Config struct {
	// InputSize is the square input resolution. The canonical AlexNet
	// uses 227; the geometry also closes at 127 and 67 for simulation
	// (Validate rejects sizes whose pooling pyramid collapses).
	InputSize int
	// Classes is the classifier width (ImageNet: 1000).
	Classes int
	// WidthDiv divides channel and FC widths (minimum 2 channels / 8
	// units) to shrink the network for simulation; 1 is full AlexNet.
	WidthDiv int
	// Seed drives synthetic weight generation.
	Seed int64
}

// FullConfig is the canonical 227×227 ImageNet AlexNet.
func FullConfig() Config {
	return Config{InputSize: 227, Classes: 1000, WidthDiv: 1, Seed: 1}
}

// LiteConfig is a reduced network for simulation.
func LiteConfig() Config {
	return Config{InputSize: 67, Classes: 10, WidthDiv: 8, Seed: 1}
}

func (c Config) chans(ch int) int {
	w := ch / c.WidthDiv
	if w < 2 {
		w = 2
	}
	return w
}

func (c Config) units(u int) int {
	w := u / c.WidthDiv
	if w < 8 {
		w = 8
	}
	return w
}

// BuildLayers emits the AlexNet layer sequence.
func BuildLayers(cfg Config) ([]LayerDef, error) {
	if cfg.InputSize < 11 || cfg.Classes < 1 || cfg.WidthDiv < 1 {
		return nil, fmt.Errorf("alexnet: bad config %+v", cfg)
	}
	return []LayerDef{
		{Kind: Conv, Filters: cfg.chans(96), Size: 11, Stride: 4, Act: nn.ReLU},
		{Kind: MaxPool, Size: 3, Stride: 2},
		{Kind: Conv, Filters: cfg.chans(256), Size: 5, Stride: 1, Pad: 2, Act: nn.ReLU},
		{Kind: MaxPool, Size: 3, Stride: 2},
		{Kind: Conv, Filters: cfg.chans(384), Size: 3, Stride: 1, Pad: 1, Act: nn.ReLU},
		{Kind: Conv, Filters: cfg.chans(384), Size: 3, Stride: 1, Pad: 1, Act: nn.ReLU},
		{Kind: Conv, Filters: cfg.chans(256), Size: 3, Stride: 1, Pad: 1, Act: nn.ReLU},
		{Kind: MaxPool, Size: 3, Stride: 2},
		{Kind: FC, Filters: cfg.units(4096), Act: nn.ReLU},
		{Kind: FC, Filters: cfg.units(4096), Act: nn.ReLU},
		{Kind: FC, Filters: cfg.Classes},
	}, nil
}

// Network is a built AlexNet: the shared layer graph (shapes, weights,
// executor; GEMMBounds also returns the largest row count).
type Network struct {
	*nn.Network
	Cfg Config
}

// New builds the network, validating the geometry and generating seeded
// weights.
func New(cfg Config) (*Network, error) {
	defs, err := BuildLayers(cfg)
	if err != nil {
		return nil, err
	}
	g, err := nn.New(3, cfg.InputSize, cfg.InputSize, defs, cfg.Seed, "alexnet_layer%02d")
	if err != nil {
		return nil, fmt.Errorf("alexnet: input size %d: %w", cfg.InputSize, err)
	}
	return &Network{Network: g, Cfg: cfg}, nil
}

// Forward runs one image. If runner is nil every GEMM uses the host
// reference; otherwise conv and FC layers are delegated to the DPU
// system. Both paths are bit-exact. The returned slice is the logits
// (one per class, Q10.5).
func (n *Network) Forward(input *tensor.Tensor, runner *gemm.Runner) ([]int16, *ForwardStats, error) {
	out, stats, err := n.Network.Forward(input, runner)
	if err != nil {
		return nil, nil, fmt.Errorf("alexnet: %w", err)
	}
	return out.Out.Data, stats, nil
}
