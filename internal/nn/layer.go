// Package nn is the network-independent half of the thesis's mapping:
// one layer vocabulary, shape inference and seeded weights for a layer
// list, and one executor that lowers every conv/FC layer to im2col →
// Algorithm 2 GEMM → bias/activation on the host reference, the Fig 4.6
// row-per-DPU mapping or §6.1's image-per-DPU mapping. YOLOv3, AlexNet
// and ResNet-18 are layer lists over this vocabulary (internal/yolo,
// internal/alexnet, internal/resnet); see DESIGN.md, "Networks".
package nn

// Kind enumerates the layer types of the three networks.
type Kind int

// Layer kinds. Conv, FC and a projecting BlockStart run a GEMM; the rest
// stay on the host (§4.2.3 delegates only the GEMM).
const (
	Conv Kind = iota + 1
	FC
	MaxPool
	GlobalAvgPool
	// Shortcut saturating-adds the output of layer i+From.
	Shortcut
	// Route concatenates the outputs of Layers along channels.
	Route
	// Upsample repeats pixels Stride times in both directions.
	Upsample
	// BlockStart/BlockEnd bracket a ResNet basic block: BlockStart
	// remembers the residual input (through a 1×1 strided projection
	// when Project is set); BlockEnd performs the saturating residual
	// add followed by ReLU.
	BlockStart
	BlockEnd
	// Head marks a detection-head output: its input passes through
	// unchanged and is also returned in Output.Heads.
	Head
)

func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case MaxPool:
		return "maxpool"
	case GlobalAvgPool:
		return "avgpool"
	case Shortcut:
		return "shortcut"
	case Route:
		return "route"
	case Upsample:
		return "upsample"
	case BlockStart:
		return "block-start"
	case BlockEnd:
		return "block-end"
	case Head:
		return "yolo"
	default:
		return "layer?"
	}
}

// Activation selects the nonlinearity applied after a GEMM layer's bias.
type Activation int

// Activations. Leaky is the darknet leaky ReLU, quantized as x>>3 for
// negative inputs.
const (
	Linear Activation = iota
	ReLU
	Leaky
)

// Layer describes one layer of a network graph.
type Layer struct {
	Kind    Kind
	Filters int        // Conv, projecting BlockStart: output channels; FC: output units
	Size    int        // Conv, MaxPool: kernel edge
	Stride  int        // Conv, MaxPool, BlockStart; Upsample: factor
	Pad     int        // Conv, MaxPool
	Act     Activation // Conv, FC
	From    int        // Shortcut: relative source (e.g. -3)
	Layers  []int      // Route: relative (<0) or absolute source indices
	Mask    []int      // Head: anchor indices used at this scale
	Project bool       // BlockStart: the shortcut needs a 1×1 strided projection
}
