package tensor

import (
	"testing"
	"testing/quick"
)

func TestAccessors(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(1, 2, 3, -7)
	if tt.At(1, 2, 3) != -7 || tt.Len() != 24 {
		t.Error("accessors wrong")
	}
	cl := tt.Clone()
	cl.Set(0, 0, 0, 9)
	if tt.At(0, 0, 0) == 9 {
		t.Error("Clone aliases")
	}
}

func TestQuantizeEdges(t *testing.T) {
	tests := []struct {
		give float64
		want int16
	}{
		{0, 0}, {1, 32}, {-1, -32}, {1e9, 32767}, {-1e9, -32768},
		{1.0 / 64, 1}, {-1.0 / 64, -1},
	}
	for _, tt := range tests {
		if got := Quantize(tt.give); got != tt.want {
			t.Errorf("Quantize(%v) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestQuantizeDequantizeProperty(t *testing.T) {
	f := func(v int16) bool {
		// Round-trip through float is the identity for representable
		// values.
		x := float64(v) / QOne
		return Quantize(x) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvOut(t *testing.T) {
	tests := []struct {
		in, size, stride, pad, want int
	}{
		{227, 11, 4, 0, 55}, // AlexNet conv1
		{55, 3, 2, 0, 27},   // AlexNet pool1
		{27, 5, 1, 2, 27},   // AlexNet conv2
		{416, 3, 1, 1, 416}, // YOLO stride-1
		{416, 3, 2, 1, 208}, // YOLO downsample
	}
	for _, tt := range tests {
		if got := ConvOut(tt.in, tt.size, tt.stride, tt.pad); got != tt.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d",
				tt.in, tt.size, tt.stride, tt.pad, got, tt.want)
		}
	}
}

func TestIm2ColZeroPad(t *testing.T) {
	in := New(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = int16(i + 1)
	}
	// 3x3 kernel, stride 1, pad 1: out 3x3; K=9, N=9.
	b, k, n := Im2ColInto(nil, in, 3, 1, 1)
	if k != 9 || n != 9 {
		t.Fatalf("K=%d N=%d", k, n)
	}
	// Top-left output's top-left tap is padding.
	if b[0] != 0 {
		t.Errorf("pad tap = %d", b[0])
	}
	// Center output (index 4) with center tap (row 4) is input (1,1)=5.
	if b[4*n+4] != 5 {
		t.Errorf("center tap = %d, want 5", b[4*n+4])
	}
}

func TestIm2ColStrideNoPad(t *testing.T) {
	in := New(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = int16(i)
	}
	// 2x2 kernel, stride 2, no pad: out 2x2.
	b, k, n := Im2ColInto(nil, in, 2, 2, 0)
	if k != 4 || n != 4 {
		t.Fatalf("K=%d N=%d", k, n)
	}
	// Tap (0,0) of output (1,1) is input (2,2) = 10.
	if b[0*n+3] != 10 {
		t.Errorf("tap = %d, want 10", b[3])
	}
}

// TestIm2ColForms checks both forms of the lowering against the
// definition (tap (c,dy,dx) of output (oy,ox) is input pixel
// (oy*stride+dy-pad, ox*stride+dx-pad), zero outside the image): the
// int16 matrix, and the staged form — the same matrix as little-endian
// int16 at a padded row stride, negative values and all, with the
// padding columns left alone — from Im2ColBytes and from the loop
// oracle, into a buffer that starts at an even and at an odd address.
// The buffer Im2ColInto reuses is dirty, so a zero it fails to write
// shows.
func TestIm2ColForms(t *testing.T) {
	in := New(2, 5, 7)
	for i := range in.Data {
		in.Data[i] = int16(i*37%1001 - 500)
	}
	staged := map[string]func([]byte, int, *Tensor, int, int, int, int, int){
		"native": Im2ColBytes, "loops": im2colBytesLoop,
	}
	for _, c := range []struct{ size, stride, pad int }{
		{3, 1, 1}, {1, 1, 0}, {3, 2, 1}, {2, 2, 0}, {5, 1, 2}, {3, 4, 0}, {5, 3, 2},
	} {
		outH, outW := ConvOut(in.H, c.size, c.stride, c.pad), ConvOut(in.W, c.size, c.stride, c.pad)
		k, n := Im2ColDims(in, c.size, c.stride, c.pad)
		if k != in.C*c.size*c.size || n != outH*outW {
			t.Fatalf("%+v: Im2ColDims = %dx%d", c, k, n)
		}
		want := make([]int16, k*n)
		for r := 0; r < k; r++ {
			ch, dy, dx := r/(c.size*c.size), r/c.size%c.size, r%c.size
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					iy, ix := oy*c.stride+dy-c.pad, ox*c.stride+dx-c.pad
					if iy >= 0 && iy < in.H && ix >= 0 && ix < in.W {
						want[r*n+oy*outW+ox] = in.At(ch, iy, ix)
					}
				}
			}
		}
		dirty := make([]int16, k*n)
		for i := range dirty {
			dirty[i] = -1
		}
		got, gk, gn := Im2ColInto(dirty, in, c.size, c.stride, c.pad)
		if gk != k || gn != n {
			t.Fatalf("%+v: Im2ColInto shape %dx%d, want %dx%d", c, gk, gn, k, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: int16 element (%d,%d) = %d, want %d", c, i/n, i%n, got[i], want[i])
			}
		}
		rowStride := n + 3
		for name, fn := range staged {
			for _, skew := range []int{0, 1} {
				// The whole matrix, and row ranges at either end.
				for _, rg := range [][2]int{{0, k}, {k / 2, k - k/2}, {0, 1}} {
					first, count := rg[0], rg[1]
					dst := make([]byte, count*rowStride*2+skew)
					for i := range dst {
						dst[i] = 0xEE
					}
					dst = dst[skew:]
					fn(dst, rowStride, in, c.size, c.stride, c.pad, first, count)
					for r := first; r < first+count; r++ {
						for j := 0; j < rowStride; j++ {
							at := ((r-first)*rowStride + j) * 2
							got := int16(uint16(dst[at]) | uint16(dst[at+1])<<8)
							if j >= n {
								if dst[at] != 0xEE || dst[at+1] != 0xEE {
									t.Fatalf("%+v %s skew %d: padding column (%d,%d) overwritten", c, name, skew, r, j)
								}
							} else if got != want[r*n+j] {
								t.Fatalf("%+v %s skew %d: staged element (%d,%d) = %d, want %d", c, name, skew, r, j, got, want[r*n+j])
							}
						}
					}
				}
			}
		}
	}
}

// UnpackLE inverts PackLE at every length around the four-lane grouping,
// extreme values included, natively and through the loop oracle, with
// the byte form at an even and at an odd address; neither touches bytes
// or elements past the source's length.
func TestPackUnpackLE(t *testing.T) {
	vals := []int16{-32768, 32767, -1, 0, 1, 0x1234, -0x1234, 255, -256, 7, -7}
	for _, impl := range []struct {
		name   string
		pack   func([]byte, []int16)
		unpack func([]int16, []byte)
	}{{"native", PackLE, UnpackLE}, {"loops", packLE, unpackLE}} {
		for _, skew := range []int{0, 1} {
			for n := 0; n <= len(vals); n++ {
				raw := make([]byte, 2*n+2+skew)[skew:]
				raw[2*n], raw[2*n+1] = 0xAA, 0xAA
				impl.pack(raw, vals[:n])
				for i, v := range vals[:n] {
					if got := int16(uint16(raw[2*i]) | uint16(raw[2*i+1])<<8); got != v {
						t.Fatalf("%s skew %d n=%d: pack lane %d = %d, want %d", impl.name, skew, n, i, got, v)
					}
				}
				got := make([]int16, n+1)
				got[n] = 99
				impl.unpack(got[:n], raw)
				for i, v := range vals[:n] {
					if got[i] != v {
						t.Fatalf("%s skew %d n=%d: unpack lane %d = %d, want %d", impl.name, skew, n, i, got[i], v)
					}
				}
				if raw[2*n] != 0xAA || raw[2*n+1] != 0xAA || got[n] != 99 {
					t.Fatalf("%s skew %d n=%d: wrote past the source's length", impl.name, skew, n)
				}
			}
		}
	}
}
