package yolo

import (
	"fmt"
	"io"

	"pimdnn/internal/tensor"
)

// SaveWeights serializes the network's parameters (all 75 convolutions,
// positionally) so a tuned or externally imported weight set can be
// reloaded into the same graph.
func (n *Network) SaveWeights(w io.Writer) error {
	return tensor.WriteWeights(w, n.Weights)
}

// LoadWeights replaces the network's parameters with a saved set,
// validating every layer's dimensions against the built graph.
func (n *Network) LoadWeights(r io.Reader) error {
	layers, err := tensor.ReadWeights(r)
	if err != nil {
		return fmt.Errorf("yolo: %w", err)
	}
	if len(layers) != len(n.Weights) {
		return fmt.Errorf("yolo: weight file has %d layers, graph has %d", len(layers), len(n.Weights))
	}
	for i := range layers {
		if len(layers[i].W) != len(n.Weights[i].W) || len(layers[i].Bias) != len(n.Weights[i].Bias) {
			return fmt.Errorf("yolo: layer %d dimensions (%d, %d) do not match graph (%d, %d)",
				i, len(layers[i].W), len(layers[i].Bias), len(n.Weights[i].W), len(n.Weights[i].Bias))
		}
	}
	copy(n.Weights, layers)
	return nil
}
