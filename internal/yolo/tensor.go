// Package yolo implements a quantized YOLOv3 (Darknet-53 backbone +
// three-scale detection head) whose convolutions lower to the Algorithm 2
// fixed-point GEMM and run on the simulated UPMEM system (§4.2).
//
// Following the thesis, only the GEMM is delegated to the DPUs; im2col,
// bias/activation, shortcut/route/upsample layers and the detection
// decode stay on the host. Activations and weights are int16 in Q10.5
// (value × 32), the scale at which Algorithm 2's /32 output rescale keeps
// products in format.
//
// The network structure is the standard yolov3.cfg (75 convolutional
// layers); the WidthDiv parameter shrinks input resolution and channel
// widths so experiments fit the simulator, while preserving the layer
// graph. Weights are synthetic (seeded): the thesis's evaluation of this
// network is a latency/mapping study, and correctness is established by
// bit-exact agreement between the host reference and the DPU path plus
// unit tests on every layer type.
package yolo

import "pimdnn/internal/tensor"

// QShift and QOne re-export the shared fixed-point scale.
const (
	QShift = tensor.QShift
	QOne   = tensor.QOne
)

// Tensor is the shared quantized activation tensor.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor { return tensor.New(c, h, w) }

// Quantize converts a float64 value into Q10.5 with saturation.
func Quantize(x float64) int16 { return tensor.Quantize(x) }
