package yolo

import (
	"fmt"

	"pimdnn/internal/gemm"
	"pimdnn/internal/tensor"
)

// ForwardBatch runs a batch of images with the image-per-DPU mapping the
// thesis's future work proposes (§6.1): every DPU holds one image's
// im2col matrix and computes entire convolution layers for it, emulating
// the eBNN multi-image-per-DPU method. The runner must have batch mode
// enabled with maxM >= the largest filter count (Network.MaxFilters).
//
// Results are bit-exact against per-image Forward.
func (n *Network) ForwardBatch(inputs []*Tensor, r *gemm.Runner) ([]*Result, *ForwardStats, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("yolo: empty batch")
	}
	for i, in := range inputs {
		if in.C != 3 || in.H != n.Cfg.InputSize || in.W != n.Cfg.InputSize {
			return nil, nil, fmt.Errorf("yolo: input %d is %dx%dx%d, want 3x%dx%d",
				i, in.C, in.H, in.W, n.Cfg.InputSize, n.Cfg.InputSize)
		}
	}
	if r == nil {
		return nil, nil, fmt.Errorf("yolo: ForwardBatch requires a batch-enabled runner")
	}

	nImg := len(inputs)
	outputs := make([][]*Tensor, nImg)
	for i := range outputs {
		outputs[i] = make([]*Tensor, len(n.Defs))
	}
	curs := make([]*Tensor, nImg)
	copy(curs, inputs)
	results := make([]*Result, nImg)
	for i := range results {
		results[i] = &Result{}
	}
	stats := &ForwardStats{}
	// perImage runs the host-side layers on every host core at sharded
	// widths: each image's tensors are its own, so images are
	// independent.
	perImage := func(fn func(i int)) {
		r.System().ParallelFor(nImg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}

	for li, def := range n.Defs {
		switch def.Kind {
		case Conv:
			// Both callbacks run per image on the runner's worker pool,
			// concurrently for distinct images: im2col lowers straight
			// into the scatter staging buffer (no K×N int16 matrix per
			// image), and the bias/activation pass is fused behind the
			// decode of the image's product.
			pad := def.Size / 2
			k, cols := tensor.Im2ColDims(curs[0], def.Size, def.Stride, pad)
			s := n.shapes[li]
			if r.MetricsOn() {
				r.SetScope(fmt.Sprintf("yolo_conv%03d", li))
			}
			if r.ResidencyOn() {
				r.SetWeightLayer(li)
			}
			reqSp := r.TraceSpan()
			if reqSp != nil {
				lsp := reqSp.StartChild(fmt.Sprintf("yolo_conv%03d", li))
				lsp.SetAttr("layer", int64(li))
				r.SetTraceSpan(lsp)
			}
			st, err := r.MultiplyBatchFill(def.Filters, cols, k, 1, n.Weights[li].W, nImg,
				func(i int, dst []byte, stride int) {
					tensor.Im2ColBytes(dst, stride, curs[i], def.Size, def.Stride, pad)
				},
				func(i int, c []int16) {
					applyBiasAct(c, def.Filters, cols, n.Weights[li].Bias, def.Activation)
					curs[i] = &Tensor{C: s.c, H: s.h, W: s.w, Data: c}
				})
			if reqSp != nil {
				r.TraceSpan().End()
				r.SetTraceSpan(reqSp)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("yolo: layer %d: %w", li, err)
			}
			ls := LayerStat{
				Layer: li, Kind: Conv, DPUsUsed: st.DPUsUsed,
				Cycles: st.Cycles, Seconds: st.Seconds,
				Tasklets: st.Tasklets,
			}
			if mp, ok := r.LastMapping(); ok {
				ls.PredictedSeconds = mp.PredictedSeconds
			}
			stats.Layers = append(stats.Layers, ls)
			stats.Cycles += st.Cycles
			stats.Seconds += st.Seconds
		case Shortcut:
			perImage(func(i int) {
				out := curs[i].Clone()
				shortcutAdd(out, outputs[i][li+def.From])
				curs[i] = out
			})
		case Route:
			perImage(func(i int) {
				srcs := make([]*Tensor, len(def.Layers))
				for j, ref := range def.Layers {
					src := ref
					if ref < 0 {
						src = li + ref
					}
					srcs[j] = outputs[i][src]
				}
				curs[i] = routeConcat(srcs)
			})
		case Upsample:
			perImage(func(i int) {
				curs[i] = upsample(curs[i], def.Stride)
			})
		case Yolo:
			perImage(func(i int) {
				results[i].YoloOutputs = append(results[i].YoloOutputs, curs[i])
				results[i].Detections = append(results[i].Detections,
					n.decodeScale(curs[i], def.Mask)...)
			})
		}
		for i := range curs {
			outputs[i][li] = curs[i]
		}
	}
	perImage(func(i int) {
		results[i].Detections = NMS(results[i].Detections, 0.45)
	})
	return results, stats, nil
}

// SizePoint is one sample of the network-size study.
type SizePoint struct {
	InputSize int
	WidthDiv  int
	MACs      int64
	// Seconds is the estimated single-image latency on the full system.
	Seconds float64
	// SecondsPerMAC normalizes latency by work — the efficiency curve
	// that shows where the UPMEM mapping stops paying off.
	SecondsPerMAC float64
	// MeanDPUs is the average number of DPUs the row-per-DPU mapping
	// keeps busy (the mean conv filter count); Utilization divides it
	// by the system size. Small networks leave most of the 2,560 DPUs
	// idle — the §6.1 "where UPMEM starts losing performance" answer.
	MeanDPUs    float64
	Utilization float64
}

// SizeSweep answers the thesis's future-work question "for what network
// size does UPMEM's system start losing performance" (§6.1): it estimates
// the latency of the 75-conv YOLOv3 graph across input resolutions at a
// fixed width divisor.
func SizeSweep(sizes []int, widthDiv int, ec EstimateConfig) ([]SizePoint, error) {
	out := make([]SizePoint, 0, len(sizes))
	for _, s := range sizes {
		cfg := Config{InputSize: s, Classes: 80, WidthDiv: widthDiv, Seed: 1}
		net, err := New(cfg)
		if err != nil {
			return nil, err
		}
		total, _, err := net.EstimateSeconds(ec)
		if err != nil {
			return nil, err
		}
		macs := net.MACs()
		var filters, convs int
		for _, def := range net.Defs {
			if def.Kind == Conv {
				filters += def.Filters
				convs++
			}
		}
		meanDPUs := float64(filters) / float64(convs)
		used := meanDPUs
		if used > float64(ec.DPUs) {
			used = float64(ec.DPUs)
		}
		out = append(out, SizePoint{
			InputSize:     s,
			WidthDiv:      widthDiv,
			MACs:          macs,
			Seconds:       total,
			SecondsPerMAC: total / float64(macs),
			MeanDPUs:      meanDPUs,
			Utilization:   used / float64(ec.DPUs),
		})
	}
	return out, nil
}
