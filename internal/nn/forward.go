package nn

import (
	"fmt"

	"pimdnn/internal/gemm"
	"pimdnn/internal/tensor"
)

// LayerStat records one GEMM layer's DPU execution.
type LayerStat struct {
	Layer    int
	Kind     Kind
	DPUsUsed int
	Cycles   uint64
	Seconds  float64
	// Retries counts shards re-dispatched after injected faults.
	Retries int
	// Tasklets is the per-DPU tasklet count the layer launched with —
	// the auto-mapper's per-shape choice when the runner plans, the
	// hand-tuned constant otherwise.
	Tasklets int
	// PredictedSeconds is the planner's analytic latency for the layer;
	// zero when the runner runs a fixed mapping. Comparing it against
	// Seconds is the calibration loop (cmd/upmem-profile -calibrate).
	PredictedSeconds float64
}

// ForwardStats aggregates a DPU forward pass.
type ForwardStats struct {
	Layers []LayerStat
	// Cycles and Seconds sum the GEMM layers' DPU time (the host-side
	// layers are not part of the delegated workload, §4.2.3).
	Cycles  uint64
	Seconds float64
	// Retries sums the layers' fault re-dispatches; nonzero only when
	// fault injection is armed on the underlying system.
	Retries int
}

// MaxLayerSeconds returns the slowest single layer (the thesis reports a
// ~6 s max layer within the 65 s total, §4.3.1).
func (s ForwardStats) MaxLayerSeconds() float64 {
	var m float64
	for _, l := range s.Layers {
		m = max(m, l.Seconds)
	}
	return m
}

// MaxTasklets returns the largest per-layer tasklet count (the planner
// varies it per shape; a fixed mapping pins one value).
func (s ForwardStats) MaxTasklets() int {
	m := 0
	for _, l := range s.Layers {
		m = max(m, l.Tasklets)
	}
	return m
}

// Output is one image's pass through the network.
type Output struct {
	// Out is the last layer's activations.
	Out *tensor.Tensor
	// Heads are the inputs of the Head layers, in layer order.
	Heads []*tensor.Tensor

	// Executor state: Out doubles as the current activations.
	residual *tensor.Tensor
	layers   []*tensor.Tensor // every layer's output, kept for back references
}

// Forward runs one image. If r is nil every GEMM uses the host reference
// and no runner is touched; otherwise GEMM layers are delegated to the
// DPU system with the Fig 4.6 row-per-DPU mapping. Both paths are
// bit-exact against each other.
func (n *Network) Forward(input *tensor.Tensor, r *gemm.Runner) (Output, *ForwardStats, error) {
	outs, stats, err := n.exec([]*tensor.Tensor{input}, r, false)
	if err != nil {
		return Output{}, nil, err
	}
	return outs[0], stats, nil
}

// ForwardBatch runs a batch of images with the image-per-DPU mapping the
// thesis's future work proposes (§6.1): every DPU holds one image's
// im2col matrix and computes entire layers for it, emulating the eBNN
// multi-image-per-DPU method. The runner must have batch mode enabled
// for the largest layer (EnableBatch with GEMMBounds' maxM). Results are
// bit-exact against per-image Forward.
func (n *Network) ForwardBatch(inputs []*tensor.Tensor, r *gemm.Runner) ([]Output, *ForwardStats, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("nn: empty batch")
	}
	if r == nil {
		return nil, nil, fmt.Errorf("nn: ForwardBatch requires a batch-enabled runner")
	}
	return n.exec(inputs, r, true)
}

// exec is the one layer loop: it walks the layer list once for all
// images. GEMM layers go through gemmLayer; host-side layers run per
// image — on every host core when batched, since each image's tensors
// are its own.
func (n *Network) exec(inputs []*tensor.Tensor, r *gemm.Runner, batch bool) ([]Output, *ForwardStats, error) {
	imgs := make([]Output, len(inputs))
	for i, in := range inputs {
		if s := (shape{in.C, in.H, in.W}); s != n.in {
			return nil, nil, fmt.Errorf("nn: input %d is %dx%dx%d, want %dx%dx%d",
				i, in.C, in.H, in.W, n.in.c, n.in.h, n.in.w)
		}
		imgs[i].Out = in
		if n.backRefs {
			imgs[i].layers = make([]*tensor.Tensor, len(n.Defs))
		}
	}
	stats := &ForwardStats{}
	// One im2col patch matrix reused across the host-reference GEMM
	// layers; Reference consumes it before returning.
	var im2colBuf []int16

	for li := range n.Defs {
		switch {
		case n.gemms[li].m > 0: // Conv, FC or a projecting BlockStart
			if err := n.gemmLayer(li, imgs, r, batch, stats, &im2colBuf); err != nil {
				return nil, nil, fmt.Errorf("nn: layer %d: %w", li, err)
			}
		case batch:
			r.System().ParallelFor(len(imgs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					n.hostLayer(li, &imgs[i])
				}
			})
		default:
			n.hostLayer(li, &imgs[0])
		}
		if n.backRefs {
			for i := range imgs {
				imgs[i].layers[li] = imgs[i].Out
			}
		}
	}
	return imgs, stats, nil
}

// hostLayer applies a layer without a GEMM to one image.
func (n *Network) hostLayer(li int, im *Output) {
	switch l := &n.Defs[li]; l.Kind {
	case BlockStart:
		im.residual = im.Out
	case BlockEnd:
		im.Out = addSat(im.Out, im.residual, true)
		im.residual = nil
	case MaxPool:
		im.Out = maxPool(im.Out, l.Size, l.Stride, l.Pad)
	case GlobalAvgPool:
		im.Out = globalAvgPool(im.Out)
	case Shortcut:
		im.Out = addSat(im.Out, im.layers[li+l.From], false)
	case Route:
		srcs := make([]*tensor.Tensor, len(l.Layers))
		for j, ref := range l.Layers {
			if ref < 0 {
				ref += li
			}
			srcs[j] = im.layers[ref]
		}
		im.Out = concat(srcs)
	case Upsample:
		im.Out = upsample(im.Out, l.Stride)
	case Head:
		im.Heads = append(im.Heads, im.Out)
	}
}

// gemmLayer runs layer li's GEMM for every image: im2col, the product,
// then finishGEMM. The product comes from the host reference (r == nil)
// over an int16 im2col matrix, or from Runner.MultiplyFill per image or
// one Runner.MultiplyBatchFill for all images, whose fill lowers im2col
// straight into the runner's staging bytes; the batch callbacks run per
// image on the worker pool, with bias/activation fused behind the decode.
func (n *Network) gemmLayer(li int, imgs []Output, r *gemm.Runner, batch bool, stats *ForwardStats, im2colBuf *[]int16) error {
	g, a := n.gemms[li], n.Weights[li].W
	if batch {
		return n.onDPUs(r, li, stats, func() (gemm.Stats, error) {
			return r.MultiplyBatchFill(g.m, g.cols, g.k, 1, a, len(imgs),
				func(i int, dst []byte, stride int) {
					tensor.Im2ColBytes(dst, stride, imgs[i].Out, g.size, g.stride, g.pad)
				},
				func(i int, c []int16) { n.finishGEMM(li, &imgs[i], c) })
		})
	}
	for i := range imgs {
		var c []int16
		var err error
		if r == nil {
			b, _, _ := tensor.Im2ColInto(*im2colBuf, imgs[i].Out, g.size, g.stride, g.pad)
			*im2colBuf = b
			c, err = gemm.Reference(g.m, g.cols, g.k, 1, a, b)
		} else {
			err = n.onDPUs(r, li, stats, func() (st gemm.Stats, err error) {
				c, st, err = r.MultiplyFill(g.m, g.cols, g.k, 1, a, func(dst []byte, stride int) {
					tensor.Im2ColBytes(dst, stride, imgs[i].Out, g.size, g.stride, g.pad)
				})
				return st, err
			})
		}
		if err != nil {
			return err
		}
		n.finishGEMM(li, &imgs[i], c)
	}
	return nil
}

// finishGEMM turns layer li's raw product c into the layer's output:
// bias and activation in place, then the image's new activations — or
// its residual, when the layer is a block's shortcut projection (which
// reads the block input like the block's first conv does).
func (n *Network) finishGEMM(li int, im *Output, c []int16) {
	g, l := &n.gemms[li], &n.Defs[li]
	biasAct(c, g.m, g.cols, n.Weights[li].Bias, l.Act)
	t := &tensor.Tensor{C: g.out.c, H: g.out.h, W: g.out.w, Data: c}
	if l.Kind == BlockStart {
		im.residual = t
	} else {
		im.Out = t
	}
}

// onDPUs is the one instrumented dispatch: it names the layer's
// telemetry scope, arms its weight-residency key (the layer index),
// opens its trace span under the request span, runs the runner call and
// records the layer's stat. Every network and both DPU mappings account
// here and nowhere else.
func (n *Network) onDPUs(r *gemm.Runner, li int, stats *ForwardStats, multiply func() (gemm.Stats, error)) error {
	reqSp := r.TraceSpan()
	if r.MetricsOn() || reqSp != nil {
		name := fmt.Sprintf(n.scope, li)
		if r.MetricsOn() {
			r.SetScope(name)
		}
		if reqSp != nil {
			lsp := reqSp.StartChild(name)
			lsp.SetAttr("layer", int64(li))
			r.SetTraceSpan(lsp)
		}
	}
	if r.ResidencyOn() {
		r.SetWeightLayer(li)
	}
	st, err := multiply()
	if reqSp != nil {
		r.TraceSpan().End()
		r.SetTraceSpan(reqSp)
	}
	if err != nil {
		return err
	}
	ls := LayerStat{
		Layer: li, Kind: n.Defs[li].Kind, DPUsUsed: st.DPUsUsed,
		Cycles: st.Cycles, Seconds: st.Seconds, Retries: st.Retries,
		Tasklets: st.Tasklets,
	}
	if mp, ok := r.LastMapping(); ok {
		ls.PredictedSeconds = mp.PredictedSeconds
	}
	stats.Layers = append(stats.Layers, ls)
	stats.Cycles += st.Cycles
	stats.Seconds += st.Seconds
	stats.Retries += st.Retries
	return nil
}
