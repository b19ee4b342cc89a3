package nn

import (
	"pimdnn/internal/fixed"
	"pimdnn/internal/tensor"
)

// The host-side layer operations: everything the thesis leaves off the
// DPUs (§4.2.3). Each reads only its inputs and writes only the
// destination it is given (an image's plan slot), so the batch executor
// runs them per image on every host core.

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

// maxPool writes in's size×size max pooling to out; pads never win.
func maxPool(out, in *tensor.Tensor, size, stride, pad int) {
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
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
}

// globalAvgPool writes each channel's average (truncating) to out.
func globalAvgPool(out, in *tensor.Tensor) {
	area := in.H * in.W
	for c := 0; c < in.C; c++ {
		var sum int32
		for _, v := range in.Data[c*area : (c+1)*area] {
			sum += int32(v)
		}
		out.Data[c] = fixed.ClampInt16(sum / int32(area))
	}
}

// addSat writes the element-wise saturating sum a+b (a Shortcut) to out,
// with a ReLU behind it when relu is set (a ResNet BlockEnd).
func addSat(out, a, b *tensor.Tensor, relu bool) {
	for i, v := range a.Data {
		s := fixed.SatAdd16(v, b.Data[i])
		if relu && s < 0 {
			s = 0
		}
		out.Data[i] = s
	}
}

// upsample writes in, nearest-neighbor upsampled by factor, to out.
func upsample(out, in *tensor.Tensor, factor int) {
	for c := 0; c < in.C; c++ {
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				out.Set(c, y, x, in.At(c, y/factor, x/factor))
			}
		}
	}
}
