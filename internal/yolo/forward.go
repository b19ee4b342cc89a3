package yolo

import (
	"fmt"

	"pimdnn/internal/gemm"
	"pimdnn/internal/nn"
)

// The forward statistics are the shared executor's.
type (
	LayerStat    = nn.LayerStat
	ForwardStats = nn.ForwardStats
)

// Result carries the network outputs.
type Result struct {
	// YoloOutputs are the raw detection tensors at the three scales.
	YoloOutputs []*Tensor
	// Detections are the decoded, NMS-filtered boxes.
	Detections []Detection
}

// Forward runs the network. If runner is nil every convolution uses the
// host reference GEMM; otherwise convolutions are delegated to the DPU
// system with the Fig 4.6 row-per-DPU mapping. Both paths are bit-exact
// against each other.
func (n *Network) Forward(input *Tensor, runner *gemm.Runner) (*Result, *ForwardStats, error) {
	out, stats, err := n.Network.Forward(input, runner)
	if err != nil {
		return nil, nil, fmt.Errorf("yolo: %w", err)
	}
	return n.detect(out.Heads), stats, nil
}

// ForwardBatch runs a batch of images with the image-per-DPU mapping
// (§6.1, nn.Network.ForwardBatch); the runner must have batch mode
// enabled with maxM >= Network.MaxFilters. The detection decode runs
// per image on every host core. Results are bit-exact against per-image
// Forward.
func (n *Network) ForwardBatch(inputs []*Tensor, r *gemm.Runner) ([]*Result, *ForwardStats, error) {
	outs, stats, err := n.Network.ForwardBatch(inputs, r)
	if err != nil {
		return nil, nil, fmt.Errorf("yolo: %w", err)
	}
	results := make([]*Result, len(outs))
	r.System().ParallelFor(len(outs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = n.detect(outs[i].Heads)
		}
	})
	return results, stats, nil
}

// detect decodes the three head tensors (in layer order) into boxes and
// filters them with NMS.
func (n *Network) detect(heads []*Tensor) *Result {
	res := &Result{YoloOutputs: heads}
	scale := 0
	for _, def := range n.Defs {
		if def.Kind == Yolo {
			res.Detections = append(res.Detections, n.decodeScale(heads[scale], def.Mask)...)
			scale++
		}
	}
	res.Detections = NMS(res.Detections, 0.45)
	return res
}
