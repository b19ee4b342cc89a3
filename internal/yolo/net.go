package yolo

import (
	"fmt"

	"pimdnn/internal/nn"
)

// Network is a built YOLOv3: the shared layer graph (shapes, weights,
// executor) plus the anchors its detection decode needs.
type Network struct {
	*nn.Network
	Cfg     Config
	anchors []Anchor
}

// New builds the network graph, infers every layer's output shape, and
// generates seeded synthetic weights.
func New(cfg Config) (*Network, error) {
	defs, err := BuildLayers(cfg)
	if err != nil {
		return nil, err
	}
	g, err := nn.New(3, cfg.InputSize, cfg.InputSize, defs, cfg.Seed, "yolo_conv%03d")
	if err != nil {
		return nil, fmt.Errorf("yolo: %w", err)
	}
	for i, def := range defs {
		if c, _, _ := g.Shape(i); def.Kind == Yolo && c != cfg.headFilters() {
			return nil, fmt.Errorf("yolo: layer %d: head depth %d, want %d", i, c, cfg.headFilters())
		}
	}
	return &Network{Network: g, Cfg: cfg, anchors: scaleAnchors(cfg)}, nil
}

func scaleAnchors(cfg Config) []Anchor {
	// Anchors are defined for 416×416; rescale to the configured input.
	s := float64(cfg.InputSize) / 416
	out := make([]Anchor, len(DefaultAnchors))
	for i, a := range DefaultAnchors {
		out[i] = Anchor{W: a.W * s, H: a.H * s}
	}
	return out
}

// GEMMBounds returns the largest K and N any convolution needs, for
// sizing a gemm.Runner.
func (n *Network) GEMMBounds() (maxK, maxN int) {
	maxK, maxN, _ = n.Network.GEMMBounds()
	return maxK, maxN
}

// MaxFilters returns the largest conv filter count — the DPU count the
// Fig 4.6 row-per-DPU mapping wants available, and the EnableBatch bound
// ForwardBatch needs.
func (n *Network) MaxFilters() int {
	_, _, maxM := n.Network.GEMMBounds()
	return maxM
}
