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

// Output is one image's pass through the network. Its tensors are the
// caller's: the pass copies them out of its arena before it returns.
type Output struct {
	// Out is the last layer's activations.
	Out *tensor.Tensor
	// Heads are the inputs of the Head layers, in layer order.
	Heads []*tensor.Tensor
}

// Forward runs one image. If r is nil every GEMM uses the host reference
// and no runner is touched; otherwise GEMM layers are delegated to the
// DPU system with the Fig 4.6 row-per-DPU mapping. Both paths are
// bit-exact against each other. Concurrent calls with a nil r are
// independent: each takes its own arena.
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
// images, writing every activation to its plan slot in the call's arena
// (one slab per image). GEMM layers go through gemmLayer; host-side
// layers run per image — on every host core when batched, since each
// image's slab is its own. The heads and the output are copied out.
func (n *Network) exec(inputs []*tensor.Tensor, r *gemm.Runner, batch bool) ([]Output, *ForwardStats, error) {
	for i, in := range inputs {
		if s := (shape{in.C, in.H, in.W}); s != n.in {
			return nil, nil, fmt.Errorf("nn: input %d is %dx%dx%d, want %dx%dx%d",
				i, in.C, in.H, in.W, n.in.c, n.in.h, n.in.w)
		}
	}
	ar := n.takeArena(len(inputs))
	defer n.putArena(ar)
	stats := &ForwardStats{}
	if r != nil {
		stats.Layers = make([]LayerStat, 0, n.ngemm)
	}
	// One im2col patch matrix reused across the host-reference GEMM
	// layers; Reference consumes it before returning.
	var im2colBuf []int16

	for li := range n.Defs {
		switch {
		case n.gemms[li].m > 0: // Conv, FC or a projecting BlockStart
			if err := n.gemmLayer(li, ar, inputs, r, batch, stats, &im2colBuf); err != nil {
				return nil, nil, fmt.Errorf("nn: layer %d: %w", li, err)
			}
		case n.slots[li].n == 0: // Head, BlockStart: the input passes through
		case batch:
			r.System().ParallelFor(len(inputs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					n.hostLayer(li, ar, inputs, i)
				}
			})
		default:
			n.hostLayer(li, ar, inputs, 0)
		}
	}
	outs := make([]Output, len(inputs))
	for i := range outs {
		outs[i] = n.copyOut(ar, inputs, i)
	}
	return outs, stats, nil
}

// takeArena takes an arena for a pass over images from the free list: a
// concurrent call gets its own, and one too small for the batch is
// dropped and replaced, so the arenas grow to the largest batch seen.
func (n *Network) takeArena(images int) (ar []int16) {
	n.mu.Lock()
	if k := len(n.arenas); k > 0 {
		ar, n.arenas = n.arenas[k-1], n.arenas[:k-1]
	}
	n.mu.Unlock()
	if cap(ar) < images*n.slab {
		ar = make([]int16, images*n.slab)
	}
	return ar[:images*n.slab]
}

func (n *Network) putArena(ar []int16) {
	n.mu.Lock()
	n.arenas = append(n.arenas, ar)
	n.mu.Unlock()
}

// act is image i's activation held by producer p: a view of p's slot in
// the image's slab, or the input image itself when p < 0.
func (n *Network) act(ar []int16, inputs []*tensor.Tensor, i, p int) tensor.Tensor {
	if p < 0 {
		return *inputs[i]
	}
	s := &n.slots[p]
	off := i*n.slab + s.off
	return tensor.Tensor{C: s.c, H: s.h, W: s.w, Data: ar[off : off+s.n : off+s.n]}
}

// copyOut copies image i's heads and output out of the arena; Out shares
// the copy of a head it aliases.
func (n *Network) copyOut(ar []int16, inputs []*tensor.Tensor, i int) (o Output) {
	clone := func(p int) *tensor.Tensor { t := n.act(ar, inputs, i, p); return t.Clone() }
	for li, l := range n.Defs {
		if p := n.reads[li]; l.Kind == Head {
			if o.Heads = append(o.Heads, clone(p[0])); p[0] == n.fin {
				o.Out = o.Heads[len(o.Heads)-1]
			}
		}
	}
	if o.Out == nil {
		o.Out = clone(n.fin)
	}
	return o
}

// hostLayer applies layer li, which has no GEMM, to image i: it reads the
// plan's producers and writes the layer's slot.
func (n *Network) hostLayer(li int, ar []int16, inputs []*tensor.Tensor, i int) {
	l, reads := &n.Defs[li], n.reads[li]
	dst, in := n.act(ar, inputs, i, li), n.act(ar, inputs, i, reads[0])
	switch l.Kind {
	case BlockEnd, Shortcut:
		other := n.act(ar, inputs, i, reads[1])
		addSat(&dst, &in, &other, l.Kind == BlockEnd)
	case MaxPool:
		maxPool(&dst, &in, l.Size, l.Stride, l.Pad)
	case GlobalAvgPool:
		globalAvgPool(&dst, &in)
	case Route:
		off := 0
		for _, p := range reads {
			src := n.act(ar, inputs, i, p)
			off += copy(dst.Data[off:], src.Data)
		}
	case Upsample:
		upsample(&dst, &in, l.Stride)
	}
}

// gemmLayer runs layer li's GEMM for every image: im2col, the product
// into the layer's slot, then bias/activation in place. The product is
// the host reference's (r == nil) over an int16 im2col matrix, or one
// Runner.MultiplyFill per image or Runner.MultiplyBatchFill for all,
// whose fill lowers im2col straight into the runner's staging bytes; the
// batch callbacks run per image on the worker pool.
func (n *Network) gemmLayer(li int, ar []int16, inputs []*tensor.Tensor, r *gemm.Runner, batch bool, stats *ForwardStats, im2colBuf *[]int16) error {
	g, a, src := n.gemms[li], n.Weights[li].W, n.reads[li][0]
	if batch {
		return n.onDPUs(r, li, stats, func() (gemm.Stats, error) {
			return r.MultiplyBatchFill(g.m, g.cols, g.k, 1, a, len(inputs),
				func(i int, dst []byte, stride int) {
					in := n.act(ar, inputs, i, src)
					tensor.Im2ColBytes(dst, stride, &in, g.size, g.stride, g.pad)
				},
				func(i int) []int16 { return n.act(ar, inputs, i, li).Data },
				func(_ int, c []int16) { biasAct(c, g.m, g.cols, n.Weights[li].Bias, n.Defs[li].Act) })
		})
	}
	for i := range inputs {
		in, c := n.act(ar, inputs, i, src), n.act(ar, inputs, i, li).Data
		var err error
		if r == nil {
			b, _, _ := tensor.Im2ColInto(*im2colBuf, &in, g.size, g.stride, g.pad)
			*im2colBuf = b
			var p []int16
			p, err = gemm.Reference(g.m, g.cols, g.k, 1, a, b)
			copy(c, p)
		} else {
			err = n.onDPUs(r, li, stats, func() (gemm.Stats, error) {
				return r.MultiplyFill(g.m, g.cols, g.k, 1, a, c, func(dst []byte, stride int) {
					tensor.Im2ColBytes(dst, stride, &in, g.size, g.stride, g.pad)
				})
			})
		}
		if err != nil {
			return err
		}
		biasAct(c, g.m, g.cols, n.Weights[li].Bias, n.Defs[li].Act)
	}
	return nil
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
