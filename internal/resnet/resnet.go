// Package resnet implements a quantized ResNet-18 on the shared GEMM
// substrate, completing the thesis's §6.1 future-work span "CNNs from
// AlexNet to ResNet": convolutions and the classifier lower to
// Algorithm 2 GEMMs and run on the simulated UPMEM system; residual
// adds, pooling and the global average pool stay on the host, exactly
// like the thesis's host/DPU partition.
//
// Weights are synthetic and seeded; correctness is bit-exact agreement
// between the host reference and the DPU path plus per-layer unit tests.
package resnet

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

// Layer kinds. BlockStart/BlockEnd bracket a basic block: BlockStart
// remembers the residual input (and owns the optional 1×1 projection);
// BlockEnd performs the saturating residual add followed by ReLU.
const (
	Conv          = nn.Conv
	MaxPool       = nn.MaxPool
	GlobalAvgPool = nn.GlobalAvgPool
	FC            = nn.FC
	BlockStart    = nn.BlockStart
	BlockEnd      = nn.BlockEnd
)

// Config parameterizes the build.
type Config struct {
	// InputSize is the square input resolution (canonical: 224; any
	// multiple of 32 with InputSize/32 >= 1 closes the geometry).
	InputSize int
	// Classes is the classifier width (ImageNet: 1000).
	Classes int
	// WidthDiv divides channel widths (minimum 2) for simulation.
	WidthDiv int
	// Seed drives synthetic weight generation.
	Seed int64
}

// FullConfig is the canonical ResNet-18.
func FullConfig() Config {
	return Config{InputSize: 224, Classes: 1000, WidthDiv: 1, Seed: 1}
}

// LiteConfig is a reduced network for simulation.
func LiteConfig() Config {
	return Config{InputSize: 64, Classes: 10, WidthDiv: 16, Seed: 1}
}

func (c Config) chans(ch int) int {
	w := ch / c.WidthDiv
	if w < 2 {
		w = 2
	}
	return w
}

// BuildLayers emits the ResNet-18 sequence: conv1, maxpool, four stages
// of two basic blocks, global average pool, classifier.
func BuildLayers(cfg Config) ([]LayerDef, error) {
	if cfg.InputSize < 32 || cfg.InputSize%32 != 0 {
		return nil, fmt.Errorf("resnet: input size %d must be a positive multiple of 32", cfg.InputSize)
	}
	if cfg.Classes < 1 || cfg.WidthDiv < 1 {
		return nil, fmt.Errorf("resnet: bad config %+v", cfg)
	}
	var ls []LayerDef
	conv := func(filters, size, stride, pad int, act nn.Activation) {
		ls = append(ls, LayerDef{Kind: Conv, Filters: filters, Size: size, Stride: stride, Pad: pad, Act: act})
	}
	block := func(filters, stride int, project bool) {
		ls = append(ls, LayerDef{Kind: BlockStart, Filters: filters, Stride: stride, Project: project})
		conv(filters, 3, stride, 1, nn.ReLU)
		conv(filters, 3, 1, 1, nn.Linear) // ReLU comes after the residual add
		ls = append(ls, LayerDef{Kind: BlockEnd})
	}

	conv(cfg.chans(64), 7, 2, 3, nn.ReLU)
	ls = append(ls, LayerDef{Kind: MaxPool, Size: 3, Stride: 2, Pad: 1})
	block(cfg.chans(64), 1, false)
	block(cfg.chans(64), 1, false)
	block(cfg.chans(128), 2, true)
	block(cfg.chans(128), 1, false)
	block(cfg.chans(256), 2, true)
	block(cfg.chans(256), 1, false)
	block(cfg.chans(512), 2, true)
	block(cfg.chans(512), 1, false)
	ls = append(ls, LayerDef{Kind: GlobalAvgPool})
	ls = append(ls, LayerDef{Kind: FC, Filters: cfg.Classes})
	return ls, nil
}

// Network is a built ResNet-18: the shared layer graph (shapes, weights,
// executor). A projecting BlockStart's Weights entry holds its 1×1
// shortcut conv.
type Network struct {
	*nn.Network
	Cfg Config
}

// New builds the network with inferred shapes and seeded weights.
func New(cfg Config) (*Network, error) {
	defs, err := BuildLayers(cfg)
	if err != nil {
		return nil, err
	}
	g, err := nn.New(3, cfg.InputSize, cfg.InputSize, defs, cfg.Seed, "resnet_layer%02d")
	if err != nil {
		return nil, fmt.Errorf("resnet: %w", err)
	}
	return &Network{Network: g, Cfg: cfg}, nil
}

// GEMMBounds returns the largest K and N any GEMM needs.
func (n *Network) GEMMBounds() (maxK, maxN int) {
	maxK, maxN, _ = n.Network.GEMMBounds()
	return maxK, maxN
}

// Forward runs one image; runner nil = host reference, otherwise GEMMs
// are delegated to the DPU system. Returns the class logits (Q10.5).
func (n *Network) Forward(input *tensor.Tensor, runner *gemm.Runner) ([]int16, *ForwardStats, error) {
	out, stats, err := n.Network.Forward(input, runner)
	if err != nil {
		return nil, nil, fmt.Errorf("resnet: %w", err)
	}
	return out.Out.Data, stats, nil
}
