// Package ebnn implements the embedded binarized neural network (eBNN)
// of thesis chapter 4.1: a single binary convolution + max-pool block
// with batch-normalization and binary activation, followed by a host-side
// softmax classifier.
//
// Two DPU architectures are provided, mirroring Fig 4.2:
//
//   - the default model (Fig 4.2a) keeps the BN-BinAct blocks inside the
//     DPU, paying for software floating point on every pooled value;
//   - the LUT model (Fig 4.2b, Algorithm 1) moves BN-BinAct to the host,
//     which enumerates every possible convolution-pool result into a
//     lookup table the DPU indexes instead.
//
// Filters are random binary features; the batch-norm statistics and the
// softmax classifier are trained on the host. (The thesis uses eBNN's
// pre-trained weights, which are not available; random binary features
// with trained BN thresholds and a trained linear readout preserve the
// computation structure and give verifiable accuracy on the synthetic
// digit set.)
package ebnn

import (
	"fmt"
	"math"
	"math/rand"

	"pimdnn/internal/mnist"
)

// Architecture constants for the 28×28 single-block eBNN.
const (
	// FilterSize is the convolution kernel edge (3×3, binary).
	FilterSize = 3
	// ConvSize is the valid-convolution output edge: 28-3+1.
	ConvSize = mnist.Side - FilterSize + 1
	// PoolSize is the 2×2 max-pool output edge.
	PoolSize = ConvSize / 2
	// PoolCells is the number of pooled outputs per filter.
	PoolCells = PoolSize * PoolSize
	// ConvMin and ConvMax bound the conv result: 9 XNOR matches map to
	// 2*matches-9 in [-9, 9]. The LUT row count depends only on this
	// range (Algorithm 1: "the range of the input values are dependant
	// on only the filter size").
	ConvMin = -9
	ConvMax = 9
	// LUTRows is the number of distinct conv-pool values.
	LUTRows = ConvMax - ConvMin + 1
	// DefaultFilters is the filter count used throughout the thesis
	// experiments here; with 8 filters each pooled cell's activations
	// pack into exactly one byte.
	DefaultFilters = 8
)

// BNParams holds the five per-filter batch-normalization weights in the
// exact form Algorithm 1 consumes:
//
//	tmp = ((in + W0 - W1) / W2) * W3 + W4 ; out = tmp >= 0
type BNParams struct {
	W0, W1, W2, W3, W4 float32
}

// Model is a trained eBNN.
type Model struct {
	// F is the number of binary filters.
	F int
	// Filters holds one 9-bit binary 3×3 kernel per filter: bit
	// 3*dr+dc is the weight at (dr, dc), 1 = +1 and 0 = -1.
	Filters []uint16
	// BN holds the per-filter batch-normalization parameters.
	BN []BNParams
	// Weights is the host softmax layer: NumClasses × (F*PoolCells).
	Weights [][]float32
	// Bias is the softmax layer bias, one per class.
	Bias []float32
}

// FeatureLen returns the binary feature vector length, F*PoolCells.
func (m *Model) FeatureLen() int { return m.F * PoolCells }

// ConvPool computes the integer convolution + 2×2 max-pool outputs for a
// binarized image: result[cell*F+f] is the pooled value for filter f at
// pooled cell index cell (row-major 13×13), in [-9, 9].
func (m *Model) ConvPool(bits *[mnist.PixelCount]byte) []int8 {
	// Pack rows into uint32 words once (the DPU kernel receives the
	// image in this form; see mnist.Pack).
	var rows [mnist.Side]uint32
	for r := 0; r < mnist.Side; r++ {
		var w uint32
		for c := 0; c < mnist.Side; c++ {
			if bits[r*mnist.Side+c] != 0 {
				w |= 1 << uint(c)
			}
		}
		rows[r] = w
	}
	return convPoolRows(&rows, m.Filters)
}

// convPoolRows is the shared conv+pool computation over bit-packed rows,
// used by both the host reference and (with cost accounting) the DPU
// kernel. Filter weight bit w and input bit b match when equal, so the
// XNOR convolution result is 9 - 2*popcount(window XOR filter).
func convPoolRows(rows *[mnist.Side]uint32, filters []uint16) []int8 {
	nf := len(filters)
	out := make([]int8, PoolCells*nf)
	for f, filt := range filters {
		f0 := uint32(filt) & 7
		f1 := (uint32(filt) >> 3) & 7
		f2 := (uint32(filt) >> 6) & 7
		for pr := 0; pr < PoolSize; pr++ {
			for pc := 0; pc < PoolSize; pc++ {
				best := int8(math.MinInt8)
				for dr := 0; dr < 2; dr++ {
					r := pr*2 + dr
					r0, r1, r2 := rows[r], rows[r+1], rows[r+2]
					for dc := 0; dc < 2; dc++ {
						c := uint(pc*2 + dc)
						w0 := (r0 >> c) & 7
						w1 := (r1 >> c) & 7
						w2 := (r2 >> c) & 7
						x := (w0 ^ f0) | (w1^f1)<<3 | (w2^f2)<<6
						v := int8(9 - 2*popcount9(x))
						if v > best {
							best = v
						}
					}
				}
				out[(pr*PoolSize+pc)*nf+f] = best
			}
		}
	}
	return out
}

func popcount9(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Threshold returns the folded BinAct decision threshold for filter f:
// the BN-BinAct block outputs 1 iff conv value v satisfies
// float32(v) >= Threshold(f) (valid because W2, W3 > 0 for trained
// models). The default DPU kernel computes this same fold in software
// floating point (Fig 4.2a).
func (m *Model) Threshold(f int) float32 {
	bn := m.BN[f]
	scale := bn.W3 / bn.W2
	return (bn.W1 - bn.W0) - bn.W4/scale
}

// BinAct applies BN + binary activation to a pooled value using the
// folded threshold.
func (m *Model) BinAct(v int8, f int) byte {
	if float32(v) >= m.Threshold(f) {
		return 1
	}
	return 0
}

// Features computes the full binary feature vector for an image on the
// host (the reference the DPU runs must reproduce bit-for-bit).
func (m *Model) Features(img *mnist.Image) []byte {
	bits := img.Binarize()
	pooled := m.ConvPool(&bits)
	out := make([]byte, len(pooled))
	for cell := 0; cell < PoolCells; cell++ {
		for f := 0; f < m.F; f++ {
			out[cell*m.F+f] = m.BinAct(pooled[cell*m.F+f], f)
		}
	}
	return out
}

// Logits evaluates the softmax layer on a binary feature vector.
func (m *Model) Logits(features []byte) []float32 {
	logits := make([]float32, mnist.NumClasses)
	for c := range logits {
		s := m.Bias[c]
		w := m.Weights[c]
		for i, b := range features {
			if b != 0 {
				s += w[i]
			}
		}
		logits[c] = s
	}
	return logits
}

// Softmax converts logits to probabilities.
func Softmax(logits []float32) []float32 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	out := make([]float32, len(logits))
	for i, v := range logits {
		e := math.Exp(float64(v - max))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// Predict runs the full host-side inference pipeline for one image.
func (m *Model) Predict(img *mnist.Image) int {
	return argmax(m.Logits(m.Features(img)))
}

// PredictFeatures classifies a precomputed feature vector (used on the
// outputs gathered from DPUs, which is how the thesis's host consumes
// "temporary results", §4.1.3).
func (m *Model) PredictFeatures(features []byte) int {
	return argmax(m.Logits(features))
}

// Accuracy evaluates host-side accuracy over a set.
func (m *Model) Accuracy(imgs []mnist.Image) float64 {
	if len(imgs) == 0 {
		return 0
	}
	hit := 0
	for i := range imgs {
		if m.Predict(&imgs[i]) == imgs[i].Label {
			hit++
		}
	}
	return float64(hit) / float64(len(imgs))
}

func argmax(v []float32) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TrainConfig controls host-side training.
type TrainConfig struct {
	// Filters is the binary filter count (default DefaultFilters).
	Filters int
	// Epochs is the number of softmax SGD epochs.
	Epochs int
	// LearningRate is the SGD step size.
	LearningRate float32
	// Seed drives filter generation and SGD shuffling.
	Seed int64
}

// DefaultTrainConfig returns the configuration used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Filters: DefaultFilters, Epochs: 40, LearningRate: 0.05, Seed: 1}
}

// Train builds an eBNN on the host: random distinct binary filters,
// batch-norm statistics from the training set, and a softmax readout
// trained with SGD on the binary features.
func Train(ds mnist.Dataset, cfg TrainConfig) (*Model, error) {
	if cfg.Filters < 1 || cfg.Filters > 16 {
		return nil, fmt.Errorf("ebnn: filter count %d outside 1..16", cfg.Filters)
	}
	if len(ds.Train) == 0 {
		return nil, fmt.Errorf("ebnn: empty training set")
	}
	if cfg.Epochs < 1 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("ebnn: bad training config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{F: cfg.Filters}
	seen := map[uint16]bool{}
	for len(m.Filters) < cfg.Filters {
		f := uint16(rng.Intn(1 << 9))
		// Reject degenerate all-same filters and duplicates.
		if f == 0 || f == 0x1FF || seen[f] {
			continue
		}
		seen[f] = true
		m.Filters = append(m.Filters, f)
	}

	// Batch-norm statistics: per-filter mean and stddev of pooled conv
	// values over the training set, expressed in Algorithm 1 form with
	// W0=0, W1=mean, W2=std, W3=1, W4=0 (so BinAct thresholds at the
	// mean).
	sum := make([]float64, cfg.Filters)
	sumSq := make([]float64, cfg.Filters)
	n := float64(len(ds.Train) * PoolCells)
	for i := range ds.Train {
		bits := ds.Train[i].Binarize()
		pooled := m.ConvPool(&bits)
		for cell := 0; cell < PoolCells; cell++ {
			for f := 0; f < cfg.Filters; f++ {
				v := float64(pooled[cell*cfg.Filters+f])
				sum[f] += v
				sumSq[f] += v * v
			}
		}
	}
	m.BN = make([]BNParams, cfg.Filters)
	for f := range m.BN {
		mean := sum[f] / n
		variance := sumSq[f]/n - mean*mean
		if variance < 1e-3 {
			variance = 1e-3
		}
		m.BN[f] = BNParams{
			W1: float32(mean),
			W2: float32(math.Sqrt(variance)),
			W3: 1,
		}
	}

	// Softmax readout on binary features, held as ascending lists of set
	// indices: the same float32 terms as Logits, in the same order.
	active := make([][]int32, len(ds.Train))
	for i := range ds.Train {
		for j, b := range m.Features(&ds.Train[i]) {
			if b != 0 {
				active[i] = append(active[i], int32(j))
			}
		}
	}
	dim := m.FeatureLen()
	m.Weights = make([][]float32, mnist.NumClasses)
	for c := range m.Weights {
		m.Weights[c] = make([]float32, dim)
	}
	m.Bias = make([]float32, mnist.NumClasses)

	order := rng.Perm(len(ds.Train))
	logits := make([]float32, mnist.NumClasses)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			x := active[idx]
			for c := range logits {
				s, w := m.Bias[c], m.Weights[c]
				for _, i := range x {
					s += w[i]
				}
				logits[c] = s
			}
			probs := Softmax(logits)
			for c := 0; c < mnist.NumClasses; c++ {
				grad := probs[c]
				if c == ds.Train[idx].Label {
					grad -= 1
				}
				step := cfg.LearningRate * grad
				m.Bias[c] -= step
				w := m.Weights[c]
				for _, i := range x {
					w[i] -= step
				}
			}
		}
	}
	return m, nil
}

// BuildLUT runs Algorithm 1: the host enumerates every possible
// convolution-pool result through the BN-BinAct blocks and returns the
// lookup table the DPU indexes instead of performing floating point. The
// entry for conv value v and filter f is LUT[(v-ConvMin)*F + f], and
// values are stored with the ConvMin offset exactly as the thesis
// describes ("the largest negative value is the first index").
func (m *Model) BuildLUT() []byte {
	lut := make([]byte, LUTRows*m.F)
	for i := ConvMin; i <= ConvMax; i++ {
		for j := 0; j < m.F; j++ {
			bn := m.BN[j]
			tmp := float32(i)
			tmp += bn.W0
			tmp -= bn.W1
			tmp /= bn.W2
			tmp *= bn.W3
			tmp += bn.W4
			var res byte
			if tmp >= 0 {
				res = 1
			}
			lut[(i-ConvMin)*m.F+j] = res
		}
	}
	return lut
}

// FeaturesViaLUT computes features using the LUT path on the host (the
// reference for the Fig 4.2b DPU kernel).
func (m *Model) FeaturesViaLUT(img *mnist.Image, lut []byte) []byte {
	bits := img.Binarize()
	pooled := m.ConvPool(&bits)
	out := make([]byte, len(pooled))
	for cell := 0; cell < PoolCells; cell++ {
		for f := 0; f < m.F; f++ {
			v := pooled[cell*m.F+f]
			out[cell*m.F+f] = lut[(int(v)-ConvMin)*m.F+f]
		}
	}
	return out
}
