package softfloat

// Batched entry points over contiguous binary32 lanes. Kernels that
// account for their cycles with dpu.ChargeBulk/CostBlock compute whole
// vectors of softfloat operations in one call instead of one function
// call per lane; each lane is computed by the exact scalar routine, so
// results are bit-identical to a scalar loop (the slice tests cross-check
// every lane against the scalar form over NaN/Inf/denormal corpora).
//
// All functions require len(a) == len(b) == len(dst) and panic otherwise:
// a length mismatch is a kernel layout bug, the vector analogue of a
// misaligned DMA. dst may alias a or b (lanes are independent).

// checkLanes validates that every operand has exactly n lanes.
func checkLanes(n int, a, b []uint32) {
	if len(a) != n || len(b) != n {
		panic("softfloat: slice operands of unequal length")
	}
}

// AddSlice computes dst[i] = a[i] + b[i] (one __addsf3 per lane).
func AddSlice(dst, a, b []uint32) {
	checkLanes(len(dst), a, b)
	for i := range dst {
		dst[i] = Add(a[i], b[i])
	}
}

// SubSlice computes dst[i] = a[i] - b[i] (one __subsf3 per lane).
func SubSlice(dst, a, b []uint32) {
	checkLanes(len(dst), a, b)
	for i := range dst {
		dst[i] = Sub(a[i], b[i])
	}
}

// MulSlice computes dst[i] = a[i] * b[i] (one __mulsf3 per lane).
func MulSlice(dst, a, b []uint32) {
	checkLanes(len(dst), a, b)
	for i := range dst {
		dst[i] = Mul(a[i], b[i])
	}
}

// DivSlice computes dst[i] = a[i] / b[i] (one __divsf3 per lane).
func DivSlice(dst, a, b []uint32) {
	checkLanes(len(dst), a, b)
	for i := range dst {
		dst[i] = Div(a[i], b[i])
	}
}
