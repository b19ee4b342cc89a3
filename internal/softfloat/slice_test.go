package softfloat

import (
	"math/rand"
	"testing"
)

// edgeValues is the table of special binary32 patterns every slice entry
// point is crossed against: zeros of both signs, the smallest and largest
// denormals, the boundary normals, exact powers of two, values that
// force round-to-nearest-even ties, both infinities, and quiet/signaling
// NaN patterns of both signs.
var edgeValues = []uint32{
	0x00000000, // +0
	0x80000000, // -0
	0x00000001, // smallest +denormal
	0x80000001, // smallest -denormal
	0x007FFFFF, // largest +denormal
	0x807FFFFF, // largest -denormal
	0x00800000, // smallest +normal
	0x80800000, // smallest -normal
	0x00800001, // just above smallest normal
	0x3F800000, // 1.0
	0xBF800000, // -1.0
	0x3F800001, // 1.0 + ulp
	0x3FFFFFFF, // just under 2.0
	0x40000000, // 2.0
	0x3F000000, // 0.5
	0x34000000, // 2^-23 (addend that forces G/R/S rounding against 1.0)
	0x33FFFFFF, // just under 2^-23
	0x4B000000, // 2^23 (integer boundary)
	0x4B7FFFFF, // 2^24 - 1
	0x7F7FFFFF, // largest finite
	0xFF7FFFFF, // most negative finite
	0x7F000000, // 2^127 (overflow bait for mul)
	0x7F800000, // +inf
	0xFF800000, // -inf
	0x7FC00000, // canonical quiet NaN
	0xFFC00000, // -quiet NaN
	0x7F800001, // signaling NaN pattern
	0x7FFFFFFF, // NaN with all fraction bits
	0x40490FDB, // pi
	0xC0490FDB, // -pi
}

// corpusPair builds the operand vectors: the full cross product of the
// edge table followed by a seeded random sweep, so every run covers the
// same NaN/Inf/denormal/rounding cases plus a broad sample of ordinary
// patterns.
func corpusPair(t *testing.T) (a, b []uint32) {
	t.Helper()
	for _, x := range edgeValues {
		for _, y := range edgeValues {
			a = append(a, x)
			b = append(b, y)
		}
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 200000; i++ {
		a = append(a, rng.Uint32())
		b = append(b, rng.Uint32())
	}
	return a, b
}

// TestSlicesMatchScalar cross-checks every batched entry point against
// the scalar routine lane by lane over the full corpus.
func TestSlicesMatchScalar(t *testing.T) {
	a, b := corpusPair(t)
	n := len(a)
	dst := make([]uint32, n)

	cases := []struct {
		name   string
		batch  func(dst, a, b []uint32)
		scalar func(x, y uint32) uint32
	}{
		{"AddSlice", AddSlice, Add},
		{"SubSlice", SubSlice, Sub},
		{"MulSlice", MulSlice, Mul},
		{"DivSlice", DivSlice, Div},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.batch(dst, a, b)
			for i := 0; i < n; i++ {
				if want := tc.scalar(a[i], b[i]); dst[i] != want {
					t.Fatalf("%s lane %d: op(%#08x, %#08x) = %#08x, scalar %#08x",
						tc.name, i, a[i], b[i], dst[i], want)
				}
			}
		})
	}
}

// TestSliceAliasing verifies the documented in-place forms: dst may be
// one of the operands.
func TestSliceAliasing(t *testing.T) {
	a, b := corpusPair(t)
	a, b = a[:4096], b[:4096]
	want := make([]uint32, len(a))
	for i := range a {
		want[i] = Div(a[i], b[i])
	}
	dst := append([]uint32(nil), a...)
	DivSlice(dst, dst, b) // dst aliases the numerator
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("aliased DivSlice lane %d: got %#08x want %#08x", i, dst[i], want[i])
		}
	}
}

// TestSliceLengthMismatchPanics confirms the layout-bug guard.
func TestSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AddSlice(make([]uint32, 4), make([]uint32, 3), make([]uint32, 4))
}
