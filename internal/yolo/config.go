package yolo

import (
	"fmt"

	"pimdnn/internal/nn"
)

// The layer vocabulary is the shared one (internal/nn), under the
// names this package has always exported.
type (
	LayerKind  = nn.Kind
	Activation = nn.Activation
	LayerDef   = nn.Layer
)

// Layer kinds of the yolov3.cfg graph; Yolo is a detection head.
const (
	Conv     = nn.Conv
	Shortcut = nn.Shortcut
	Route    = nn.Route
	Upsample = nn.Upsample
	Yolo     = nn.Head
)

// Activations: Leaky is the darknet leaky ReLU; Linear is identity
// (detection heads).
const (
	Leaky  = nn.Leaky
	Linear = nn.Linear
)

// Anchor is a prior box size in input pixels.
type Anchor struct{ W, H float64 }

// DefaultAnchors are the standard YOLOv3 anchors (416×416 training).
var DefaultAnchors = []Anchor{
	{10, 13}, {16, 30}, {33, 23},
	{30, 61}, {62, 45}, {59, 119},
	{116, 90}, {156, 198}, {373, 326},
}

// Config parameterizes the network build.
type Config struct {
	// InputSize is the square input resolution; must be a multiple of 32
	// (the network downsamples 5 times). The thesis uses 416.
	InputSize int
	// Classes is the number of object classes (COCO: 80).
	Classes int
	// WidthDiv divides every channel width (minimum 2), shrinking the
	// network for simulation while preserving the 75-conv-layer graph.
	// 1 reproduces the full YOLOv3.
	WidthDiv int
	// Seed drives synthetic weight generation.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.InputSize < 32 || c.InputSize%32 != 0 {
		return fmt.Errorf("yolo: input size %d must be a positive multiple of 32", c.InputSize)
	}
	if c.Classes < 1 {
		return fmt.Errorf("yolo: classes %d < 1", c.Classes)
	}
	if c.WidthDiv < 1 {
		return fmt.Errorf("yolo: width divisor %d < 1", c.WidthDiv)
	}
	return nil
}

// FullConfig is the thesis's network: YOLOv3 at 416×416 with 80 classes.
func FullConfig() Config {
	return Config{InputSize: 416, Classes: 80, WidthDiv: 1, Seed: 1}
}

// LiteConfig is a reduced network for simulation: the same 75-conv graph
// at a smaller resolution and width.
func LiteConfig() Config {
	return Config{InputSize: 96, Classes: 4, WidthDiv: 16, Seed: 1}
}

// width applies the divisor with a floor of 2 channels.
func (c Config) width(ch int) int {
	w := ch / c.WidthDiv
	if w < 2 {
		w = 2
	}
	return w
}

// headFilters is the per-scale detection tensor depth: 3 anchors ×
// (4 box + 1 objectness + classes).
func (c Config) headFilters() int {
	return 3 * (5 + c.Classes)
}

// BuildLayers emits the standard yolov3.cfg layer sequence (107 layers,
// of which 75 are convolutional).
func BuildLayers(cfg Config) ([]LayerDef, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ls []LayerDef
	conv := func(filters, size, stride int, act Activation) {
		// darknet same-padding: pad = size/2.
		ls = append(ls, LayerDef{Kind: Conv, Filters: filters, Size: size, Stride: stride, Pad: size / 2, Act: act})
	}
	residual := func(mid, out int, repeats int) {
		for i := 0; i < repeats; i++ {
			conv(cfg.width(mid), 1, 1, Leaky)
			conv(cfg.width(out), 3, 1, Leaky)
			ls = append(ls, LayerDef{Kind: Shortcut, From: -3})
		}
	}

	// Darknet-53 backbone.
	conv(cfg.width(32), 3, 1, Leaky)
	conv(cfg.width(64), 3, 2, Leaky)
	residual(32, 64, 1)
	conv(cfg.width(128), 3, 2, Leaky)
	residual(64, 128, 2)
	conv(cfg.width(256), 3, 2, Leaky)
	residual(128, 256, 8) // ends at layer 36
	conv(cfg.width(512), 3, 2, Leaky)
	residual(256, 512, 8) // ends at layer 61
	conv(cfg.width(1024), 3, 2, Leaky)
	residual(512, 1024, 4)

	// Scale 1 head (stride 32).
	conv(cfg.width(512), 1, 1, Leaky)
	conv(cfg.width(1024), 3, 1, Leaky)
	conv(cfg.width(512), 1, 1, Leaky)
	conv(cfg.width(1024), 3, 1, Leaky)
	conv(cfg.width(512), 1, 1, Leaky)
	conv(cfg.width(1024), 3, 1, Leaky)
	conv(cfg.headFilters(), 1, 1, Linear)
	ls = append(ls, LayerDef{Kind: Yolo, Mask: []int{6, 7, 8}})

	// Scale 2 head (stride 16).
	ls = append(ls, LayerDef{Kind: Route, Layers: []int{-4}})
	conv(cfg.width(256), 1, 1, Leaky)
	ls = append(ls, LayerDef{Kind: Upsample, Stride: 2})
	ls = append(ls, LayerDef{Kind: Route, Layers: []int{-1, 61}})
	conv(cfg.width(256), 1, 1, Leaky)
	conv(cfg.width(512), 3, 1, Leaky)
	conv(cfg.width(256), 1, 1, Leaky)
	conv(cfg.width(512), 3, 1, Leaky)
	conv(cfg.width(256), 1, 1, Leaky)
	conv(cfg.width(512), 3, 1, Leaky)
	conv(cfg.headFilters(), 1, 1, Linear)
	ls = append(ls, LayerDef{Kind: Yolo, Mask: []int{3, 4, 5}})

	// Scale 3 head (stride 8).
	ls = append(ls, LayerDef{Kind: Route, Layers: []int{-4}})
	conv(cfg.width(128), 1, 1, Leaky)
	ls = append(ls, LayerDef{Kind: Upsample, Stride: 2})
	ls = append(ls, LayerDef{Kind: Route, Layers: []int{-1, 36}})
	conv(cfg.width(128), 1, 1, Leaky)
	conv(cfg.width(256), 3, 1, Leaky)
	conv(cfg.width(128), 1, 1, Leaky)
	conv(cfg.width(256), 3, 1, Leaky)
	conv(cfg.width(128), 1, 1, Leaky)
	conv(cfg.width(256), 3, 1, Leaky)
	conv(cfg.headFilters(), 1, 1, Linear)
	ls = append(ls, LayerDef{Kind: Yolo, Mask: []int{0, 1, 2}})

	return ls, nil
}

// CountConvLayers returns the number of convolutional layers in a layer
// list (75 for the standard graph).
func CountConvLayers(ls []LayerDef) int {
	n := 0
	for _, l := range ls {
		if l.Kind == Conv {
			n++
		}
	}
	return n
}
