package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"pimdnn/internal/gemm"
	"pimdnn/internal/tensor"
)

// Weights holds one GEMM layer's quantized parameters: W is the M×K
// operand (M = filters or units, K = inChannels·size²), Bias is one
// Q10.5 value per output row. Layers without a GEMM leave it empty.
type Weights = tensor.LayerWeights

type shape struct{ c, h, w int }

// lowering is a GEMM layer's im2col geometry and problem shape,
// C(m×cols) = W(m×k) · im2col(input; size, stride, pad)(k×cols), and
// the name its runner calls carry.
type lowering struct {
	m, k, cols        int
	size, stride, pad int
	out               shape
	id                gemm.Layer
}

// Network is a validated layer list with inferred shapes and weights.
type Network struct {
	Defs    []Layer
	Weights []Weights // indexed by layer
	in      shape
	shapes  []shape
	gemms   []lowering // indexed by layer; zero for layers without a GEMM
	ngemm   int        // layers with a GEMM: a DPU pass's len(ForwardStats.Layers)

	// The activation plan (plan.go): per layer the producers it reads (-1:
	// the input) and its slot; fin produces the output; slab is per image.
	reads     [][]int
	slots     []slot
	fin, slab int
	mu        sync.Mutex
	arenas    [][]int16 // free list of pass arenas, each some number of slabs
}

// New infers every layer's output shape from a c×h×w input, validates
// the graph (no layer's output and no image's activation slab may exceed
// maxElems), plans its activations, and draws seeded synthetic weights
// (W then bias, in layer order; std 1/sqrt(K), which keeps activations
// in range through the /32 GEMM rescale). scope is the fmt format of a
// GEMM layer's name, its telemetry scope and trace span name, e.g.
// "yolo_conv%03d"; an empty scope leaves the layers' calls anonymous.
func New(c, h, w int, layers []Layer, seed int64, scope string) (*Network, error) {
	if c < 1 || h < 1 || w < 1 {
		return nil, fmt.Errorf("nn: bad input shape %dx%dx%d", c, h, w)
	}
	n := &Network{
		Defs:    layers,
		Weights: make([]Weights, len(layers)),
		in:      shape{c, h, w},
		shapes:  make([]shape, len(layers)),
		gemms:   make([]lowering, len(layers)),
	}
	rng := rand.New(rand.NewSource(seed))
	cur := n.in
	var residual shape // zero outside a block
	for i, l := range layers {
		switch l.Kind {
		case Conv, FC, BlockStart:
			if l.Kind == BlockStart {
				residual = cur
				if !l.Project {
					break
				}
			}
			g, err := lower(l, cur)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			if g.id.Key = i; scope != "" {
				g.id.Name = fmt.Sprintf(scope, i)
			}
			n.gemms[i], n.ngemm = g, n.ngemm+1
			n.Weights[i] = synthWeights(rng, g.m, g.k)
			if l.Kind == BlockStart {
				residual = g.out
			} else {
				cur = g.out
			}
		case BlockEnd:
			if residual != cur {
				return nil, fmt.Errorf("nn: layer %d: residual shape mismatch %v vs %v", i, residual, cur)
			}
			residual = shape{}
		case MaxPool:
			if l.Size < 1 || l.Stride < 1 || cur.h+2*l.Pad < l.Size || cur.w+2*l.Pad < l.Size {
				return nil, fmt.Errorf("nn: layer %d: pool window %d stride %d does not fit %dx%d input",
					i, l.Size, l.Stride, cur.h, cur.w)
			}
			cur.h = tensor.ConvOut(cur.h, l.Size, l.Stride, l.Pad)
			cur.w = tensor.ConvOut(cur.w, l.Size, l.Stride, l.Pad)
		case GlobalAvgPool:
			cur.h, cur.w = 1, 1
		case Shortcut:
			src := i + l.From
			if src < 0 || src >= i {
				return nil, fmt.Errorf("nn: layer %d: bad shortcut source %d", i, src)
			}
			if n.shapes[src] != cur {
				return nil, fmt.Errorf("nn: layer %d: shortcut shape mismatch %v vs %v", i, n.shapes[src], cur)
			}
		case Route:
			if len(l.Layers) == 0 {
				return nil, fmt.Errorf("nn: layer %d: route without sources", i)
			}
			var ch int
			for j, ref := range l.Layers {
				src := ref
				if ref < 0 {
					src = i + ref
				}
				if src < 0 || src >= i {
					return nil, fmt.Errorf("nn: layer %d: bad route source %d", i, ref)
				}
				s := n.shapes[src]
				if j == 0 {
					cur = s
				} else if s.h != cur.h || s.w != cur.w {
					return nil, fmt.Errorf("nn: layer %d: route spatial mismatch", i)
				}
				if ch += s.c; ch > maxElems {
					return nil, fmt.Errorf("nn: layer %d: route depth exceeds %d", i, maxElems)
				}
			}
			cur.c = ch
		case Upsample:
			if l.Stride < 1 || cur.h > maxElems/l.Stride || cur.w > maxElems/l.Stride {
				return nil, fmt.Errorf("nn: layer %d: upsample factor %d out of range", i, l.Stride)
			}
			cur.h *= l.Stride
			cur.w *= l.Stride
		case Head:
			// Passes its input through unchanged.
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %v", i, l.Kind)
		}
		if cur.elems() == 0 {
			return nil, fmt.Errorf("nn: layer %d: output %dx%dx%d exceeds %d elements", i, cur.c, cur.h, cur.w, maxElems)
		}
		n.shapes[i] = cur
	}
	if err := n.plan(); err != nil {
		return nil, err
	}
	return n, nil
}

// lower returns the GEMM a Conv, FC or projecting BlockStart layer runs
// on input in. An FC layer is the convolution whose kernel covers its
// whole (square) input; a projection is a 1×1 strided convolution.
func lower(l Layer, in shape) (lowering, error) {
	g := lowering{m: l.Filters, size: l.Size, stride: l.Stride, pad: l.Pad}
	switch l.Kind {
	case FC:
		if in.h != in.w {
			return g, fmt.Errorf("fc input %dx%d is not square", in.h, in.w)
		}
		g.size, g.stride, g.pad = in.h, 1, 0
	case BlockStart:
		g.size, g.pad = 1, 0
	}
	if g.m < 1 || g.size < 1 || g.stride < 1 {
		return g, fmt.Errorf("bad %v geometry: filters %d size %d stride %d", l.Kind, g.m, g.size, g.stride)
	}
	if in.h+2*g.pad < g.size || in.w+2*g.pad < g.size {
		return g, fmt.Errorf("kernel %d exceeds %dx%d input (input size too small)", g.size, in.h, in.w)
	}
	g.out = shape{
		c: g.m,
		h: tensor.ConvOut(in.h, g.size, g.stride, g.pad),
		w: tensor.ConvOut(in.w, g.size, g.stride, g.pad),
	}
	if g.out.elems() == 0 {
		return g, fmt.Errorf("output %dx%dx%d exceeds %d elements", g.out.c, g.out.h, g.out.w, maxElems)
	}
	g.k = in.c * g.size * g.size
	g.cols = g.out.h * g.out.w
	return g, nil
}

func synthWeights(rng *rand.Rand, m, k int) Weights {
	w := make([]int16, m*k)
	std := 1.0 / sqrt(float64(k))
	for i := range w {
		w[i] = tensor.Quantize(rng.NormFloat64() * std)
	}
	bias := make([]int16, m)
	for i := range bias {
		bias[i] = tensor.Quantize(rng.NormFloat64() * 0.1)
	}
	return Weights{W: w, Bias: bias}
}

// sqrt is 24 Newton iterations rather than math.Sqrt: the synthetic
// weights of every recorded result were drawn through it, and a last-bit
// difference in std could move a quantized weight.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Shape returns layer i's output (C, H, W).
func (n *Network) Shape(i int) (c, h, w int) {
	s := n.shapes[i]
	return s.c, s.h, s.w
}

// GEMMShape returns the problem layer i dispatches, C(m×cols) =
// W(m×k)·B(k×cols); all zero for a layer without a GEMM.
func (n *Network) GEMMShape(i int) (m, k, cols int) {
	g := n.gemms[i]
	return g.m, g.k, g.cols
}

// MACs returns the multiply-accumulate count of every GEMM layer (the
// TOPs input of the chapter 5 model).
func (n *Network) MACs() int64 {
	var total int64
	for _, g := range n.gemms {
		total += int64(g.m) * int64(g.k) * int64(g.cols)
	}
	return total
}

// GEMMBounds returns the largest K, N and M any layer's GEMM needs, for
// sizing a gemm.Runner (MaxK, MaxN) and its batch mode (EnableBatch).
func (n *Network) GEMMBounds() (maxK, maxN, maxM int) {
	for _, g := range n.gemms {
		maxK = max(maxK, g.k)
		maxN = max(maxN, g.cols)
		maxM = max(maxM, g.m)
	}
	return maxK, maxN, maxM
}
