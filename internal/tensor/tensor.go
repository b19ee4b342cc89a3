// Package tensor provides the quantized activation tensor shared by the
// CNN workloads (YOLOv3, AlexNet).
//
// Values are int16 in Q10.5 (value × 32): the scale at which the
// Algorithm 2 GEMM's /32 output rescale keeps products in format, so
// activations flow through conv layers without further rescaling.
package tensor

import "encoding/binary"

// QShift is the fixed-point scale: values are stored as round(x * 32).
const QShift = 5

// QOne is the fixed-point representation of 1.0.
const QOne = 1 << QShift

// Tensor is a channel-major (C, H, W) int16 activation tensor.
type Tensor struct {
	C, H, W int
	Data    []int16
}

// New allocates a zero tensor.
func New(c, h, w int) *Tensor {
	return &Tensor{C: c, H: h, W: w, Data: make([]int16, c*h*w)}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) int16 {
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set writes the element at (c, y, x).
func (t *Tensor) Set(c, y, x int, v int16) {
	t.Data[(c*t.H+y)*t.W+x] = v
}

// Len returns the element count.
func (t *Tensor) Len() int { return t.C * t.H * t.W }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{C: t.C, H: t.H, W: t.W, Data: make([]int16, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Dequantize converts to float64 values.
func (t *Tensor) Dequantize() []float64 {
	out := make([]float64, len(t.Data))
	for i, v := range t.Data {
		out[i] = float64(v) / QOne
	}
	return out
}

// Quantize converts a float64 value into Q10.5 with saturation and
// round-half-away-from-zero.
func Quantize(x float64) int16 {
	v := x * QOne
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// Im2ColInto lowers a convolution input into the Algorithm 2 B matrix
// with explicit padding and stride: rows are the K = C·size² kernel
// taps, columns the N = outH·outW output pixels. It reuses buf's backing
// array when it is large enough, so per-layer loops avoid reallocating
// the (often large) patch matrix. Every element of the returned slice is
// overwritten.
func Im2ColInto(buf []int16, in *Tensor, size, stride, pad int) (b []int16, k, n int) {
	k, n = Im2ColDims(in, size, stride, pad)
	if cap(buf) < k*n {
		b = make([]int16, k*n)
	} else {
		b = buf[:k*n]
	}
	im2col(patch{w: b}, n, in, size, stride, pad)
	return b, k, n
}

// Im2ColBytes writes the im2col matrix into dst as little-endian int16
// — the form DPU transfers stage — with row r starting at element
// r*rowStride (rowStride >= N). Columns N..rowStride of a row are left
// untouched. A caller that scatters the matrix to a DPU lowers straight
// into its staging buffer and never holds the K×N int16 form.
func Im2ColBytes(dst []byte, rowStride int, in *Tensor, size, stride, pad int) {
	im2col(patch{b: dst}, rowStride, in, size, stride, pad)
}

// Im2ColDims returns the im2col matrix shape: K = C·size² rows by
// N = outH·outW columns.
func Im2ColDims(in *Tensor, size, stride, pad int) (k, n int) {
	return in.C * size * size, ConvOut(in.H, size, stride, pad) * ConvOut(in.W, size, stride, pad)
}

// patch is an im2col destination addressed in elements: int16 values
// (w), or their little-endian bytes (b) when w is nil.
type patch struct {
	w []int16
	b []byte
}

func (p patch) zero(off, n int) {
	if p.w != nil {
		clear(p.w[off : off+n])
		return
	}
	clear(p.b[2*off : 2*(off+n)])
}

// PackLE writes src into d as little-endian int16 — the layout DPU
// transfers stage — four elements per store.
func PackLE(d []byte, src []int16) {
	i := 0
	for ; i+4 <= len(src); i += 4 {
		binary.LittleEndian.PutUint64(d[2*i:], uint64(uint16(src[i]))|uint64(uint16(src[i+1]))<<16|
			uint64(uint16(src[i+2]))<<32|uint64(uint16(src[i+3]))<<48)
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint16(d[2*i:], uint16(src[i]))
	}
}

// UnpackLE is PackLE's inverse: dst[i] is the little-endian int16 at
// s[2i], four elements per load.
func UnpackLE(dst []int16, s []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v := binary.LittleEndian.Uint64(s[2*i:])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = int16(v), int16(v>>16), int16(v>>32), int16(v>>48)
	}
	for ; i < len(dst); i++ {
		dst[i] = int16(binary.LittleEndian.Uint16(s[2*i:]))
	}
}

// im2col is the one lowering loop behind Im2ColInto and Im2ColBytes.
// Each kernel tap (c, dy, dx) is one matrix row, written an output row
// (outW columns) at a time: the taps that fall inside the image are the
// columns [lo, hi), a strided run of one source row, and the rest are
// zeros. Only the stores differ between the two forms.
func im2col(dst patch, rowStride int, in *Tensor, size, stride, pad int) {
	outH := ConvOut(in.H, size, stride, pad)
	outW := ConvOut(in.W, size, stride, pad)
	row := 0
	for c := 0; c < in.C; c++ {
		for dy := 0; dy < size; dy++ {
			for dx := 0; dx < size; dx++ {
				// Column ox reads source pixel ox*stride+base.
				base := dx - pad
				lo := 0
				if base < 0 {
					lo = (-base + stride - 1) / stride
				}
				hi := max(lo, min((in.W-base+stride-1)/stride, outW))
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + dy - pad
					off := row*rowStride + oy*outW
					if iy < 0 || iy >= in.H {
						dst.zero(off, outW)
						continue
					}
					src := in.Data[(c*in.H+iy)*in.W : (c*in.H+iy+1)*in.W]
					if dst.w != nil {
						d := dst.w[off : off+outW]
						// The edges are a tap or two wide: plain loops beat a
						// clear call here.
						for i := 0; i < lo; i++ {
							d[i] = 0
						}
						if stride == 1 {
							copy(d[lo:hi], src[lo+base:])
						} else {
							for ox := lo; ox < hi; ox++ {
								d[ox] = src[ox*stride+base]
							}
						}
						for i := hi; i < outW; i++ {
							d[i] = 0
						}
						continue
					}
					d := dst.b[2*off : 2*(off+outW)]
					clear(d[:2*lo])
					if stride == 1 {
						PackLE(d[2*lo:], src[lo+base:hi+base])
					} else {
						for ox := lo; ox < hi; ox++ {
							binary.LittleEndian.PutUint16(d[2*ox:], uint16(src[ox*stride+base]))
						}
					}
					clear(d[2*hi:])
				}
				row++
			}
		}
	}
}

// ConvOut is the convolution/pooling output-size rule.
func ConvOut(in, size, stride, pad int) int {
	return (in+2*pad-size)/stride + 1
}
