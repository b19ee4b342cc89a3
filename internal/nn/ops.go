package nn

import (
	"pimdnn/internal/fixed"
	"pimdnn/internal/tensor"
)

// The host-side layer operations: everything the thesis leaves off the
// DPUs (§4.2.3). All are pure functions of their inputs, so the batch
// executor runs them per image on every host core.

// biasAct adds the per-row bias (saturating) and applies the activation
// in place on an m×n GEMM output.
func biasAct(c []int16, m, n int, bias []int16, act Activation) {
	for f := 0; f < m; f++ {
		b := bias[f]
		row := c[f*n : (f+1)*n]
		for j, v := range row {
			s := fixed.SatAdd16(v, b)
			if s < 0 {
				switch act {
				case ReLU:
					s = 0
				case Leaky:
					// Quantized leaky ReLU: slope 1/8 via arithmetic shift.
					s >>= 3
				}
			}
			row[j] = s
		}
	}
}

// maxPool applies a size×size max pooling; padding cells never win.
func maxPool(in *tensor.Tensor, size, stride, pad int) *tensor.Tensor {
	outH := tensor.ConvOut(in.H, size, stride, pad)
	outW := tensor.ConvOut(in.W, size, stride, pad)
	out := tensor.New(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := int16(-32768)
				for dy := 0; dy < size; dy++ {
					for dx := 0; dx < size; dx++ {
						iy, ix := oy*stride+dy-pad, ox*stride+dx-pad
						if iy < 0 || iy >= in.H || ix < 0 || ix >= in.W {
							continue
						}
						if v := in.At(c, iy, ix); v > best {
							best = v
						}
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out
}

// globalAvgPool averages each channel to one value (truncating).
func globalAvgPool(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.C, 1, 1)
	area := in.H * in.W
	for c := 0; c < in.C; c++ {
		var sum int32
		for _, v := range in.Data[c*area : (c+1)*area] {
			sum += int32(v)
		}
		out.Data[c] = fixed.ClampInt16(sum / int32(area))
	}
	return out
}

// addSat returns the element-wise saturating sum a+b (a Shortcut), with
// a ReLU behind it when relu is set (a ResNet BlockEnd).
func addSat(a, b *tensor.Tensor, relu bool) *tensor.Tensor {
	out := &tensor.Tensor{C: a.C, H: a.H, W: a.W, Data: make([]int16, len(a.Data))}
	for i, v := range a.Data {
		s := fixed.SatAdd16(v, b.Data[i])
		if relu && s < 0 {
			s = 0
		}
		out.Data[i] = s
	}
	return out
}

// concat concatenates tensors of equal H×W along channels.
func concat(ts []*tensor.Tensor) *tensor.Tensor {
	c := 0
	for _, t := range ts {
		c += t.C
	}
	out := tensor.New(c, ts[0].H, ts[0].W)
	off := 0
	for _, t := range ts {
		off += copy(out.Data[off:], t.Data)
	}
	return out
}

// upsample nearest-neighbor upsamples by the integer factor.
func upsample(in *tensor.Tensor, factor int) *tensor.Tensor {
	out := tensor.New(in.C, in.H*factor, in.W*factor)
	for c := 0; c < in.C; c++ {
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				out.Set(c, y, x, in.At(c, y/factor, x/factor))
			}
		}
	}
	return out
}
