// Package tensor provides the quantized activation tensor shared by the
// CNN workloads (YOLOv3, AlexNet).
//
// Values are int16 in Q10.5 (value × 32): the scale at which the
// Algorithm 2 GEMM's /32 output rescale keeps products in format, so
// activations flow through conv layers without further rescaling.
package tensor

import (
	"encoding/binary"
	"math/rand"
	"unsafe"
)

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

// Random returns a 3×size×size image of quantized uniform [0, 1)
// values drawn from seed: the synthetic classifier input.
func Random(size int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := New(3, size, size)
	for i := range t.Data {
		t.Data[i] = Quantize(rng.Float64())
	}
	return t
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
	im2col(b, n, in, size, stride, pad, 0, k)
	return b, k, n
}

// Im2ColDims returns the im2col matrix shape: K = C·size² rows by
// N = outH·outW columns.
func Im2ColDims(in *Tensor, size, stride, pad int) (k, n int) {
	return in.C * size * size, ConvOut(in.H, size, stride, pad) * ConvOut(in.W, size, stride, pad)
}

// On a little-endian host an int16's memory is its little-endian
// encoding, the form DPU transfers stage: PackLE and UnpackLE are a copy,
// and Im2ColBytes lowers into the staging bytes viewed as []int16.
// Elsewhere packLE, unpackLE and im2colBytesLoop encode through byte
// stores; they are also the oracle the views are tested against.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PackLE writes src into d as little-endian int16.
func PackLE(d []byte, src []int16) {
	if !littleEndian {
		packLE(d, src)
		return
	}
	copy(d[:2*len(src)], bytesOf(src))
}

// UnpackLE is PackLE's inverse: dst[i] is the little-endian int16 at
// s[2i].
func UnpackLE(dst []int16, s []byte) {
	if !littleEndian {
		unpackLE(dst, s)
		return
	}
	copy(bytesOf(dst), s[:2*len(dst)])
}

// Im2ColBytes writes rows [first, first+count) of the im2col matrix
// into dst as little-endian int16, row first+r starting at element
// r*rowStride (rowStride >= N), leaving columns N..rowStride alone: a
// caller that transfers the matrix lowers straight into its staging
// buffer, or a run of rows straight into MRAM.
func Im2ColBytes(dst []byte, rowStride int, in *Tensor, size, stride, pad, first, count int) {
	p := unsafe.SliceData(dst)
	if !littleEndian || uintptr(unsafe.Pointer(p))%2 != 0 { // an odd address holds no int16
		im2colBytesLoop(dst, rowStride, in, size, stride, pad, first, count)
		return
	}
	im2col(unsafe.Slice((*int16)(unsafe.Pointer(p)), len(dst)/2), rowStride, in, size, stride, pad, first, count)
}

// bytesOf views v's memory as bytes.
func bytesOf(v []int16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}

// packLE writes src into d as little-endian int16, four elements per
// store.
func packLE(d []byte, src []int16) {
	i := 0
	for ; i+4 <= len(src); i += 4 {
		binary.LittleEndian.PutUint64(d[2*i:], uint64(uint16(src[i]))|uint64(uint16(src[i+1]))<<16|
			uint64(uint16(src[i+2]))<<32|uint64(uint16(src[i+3]))<<48)
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint16(d[2*i:], uint16(src[i]))
	}
}

// unpackLE is packLE's inverse, four elements per load.
func unpackLE(dst []int16, s []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v := binary.LittleEndian.Uint64(s[2*i:])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = int16(v), int16(v>>16), int16(v>>32), int16(v>>48)
	}
	for ; i < len(dst); i++ {
		dst[i] = int16(binary.LittleEndian.Uint16(s[2*i:]))
	}
}

// im2colBytesLoop is Im2ColBytes through the int16 matrix and packLE.
func im2colBytesLoop(dst []byte, rowStride int, in *Tensor, size, stride, pad, first, count int) {
	b, _, n := Im2ColInto(nil, in, size, stride, pad)
	for r := 0; r < count; r++ {
		packLE(dst[2*r*rowStride:], b[(first+r)*n:(first+r+1)*n])
	}
}

// im2col is the one lowering loop behind Im2ColInto and Im2ColBytes,
// writing rows [first, first+count) of the matrix, row first+r at
// dst[r*rowStride:], and leaving columns N..rowStride alone. Each kernel
// tap (c, dy, dx) is one matrix row, written an output row (outW
// columns) at a time: the taps that fall inside the image are the
// columns [lo, hi), a strided run of one source row, and the rest are
// zeros.
func im2col(dst []int16, rowStride int, in *Tensor, size, stride, pad, first, count int) {
	outH := ConvOut(in.H, size, stride, pad)
	outW := ConvOut(in.W, size, stride, pad)
	c, dy, dx := first/(size*size), first/size%size, first%size
	for r := 0; r < count; r++ {
		// Column ox reads source pixel ox*stride+base.
		base := dx - pad
		lo := 0
		if base < 0 {
			lo = (-base + stride - 1) / stride
		}
		hi := max(lo, min((in.W-base+stride-1)/stride, outW))
		for oy := 0; oy < outH; oy++ {
			iy := oy*stride + dy - pad
			off := r*rowStride + oy*outW
			d := dst[off : off+outW]
			if iy < 0 || iy >= in.H {
				clear(d)
				continue
			}
			src := in.Data[(c*in.H+iy)*in.W : (c*in.H+iy+1)*in.W]
			// The edges are a tap or two wide: plain loops beat a clear
			// call here.
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
		}
		if dx++; dx == size {
			if dx, dy = 0, dy+1; dy == size {
				dy, c = 0, c+1
			}
		}
	}
}

// ConvOut is the convolution/pooling output-size rule.
func ConvOut(in, size, stride, pad int) int {
	return (in+2*pad-size)/stride + 1
}
