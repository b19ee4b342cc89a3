// Package fixed provides the fixed-point arithmetic substrate used by the
// DPU-side CNN kernels.
//
// The UPMEM DPU has no floating-point hardware (thesis §3.3), so every
// network that runs inside a DPU is quantized. This package supplies the
// saturating integer arithmetic and the specific output clamp used by
// the thesis's YOLOv3 GEMM kernel (Algorithm 2):
//
//	C[i*N+j] = absolutemax(ctmp[j]/32, 32767)
package fixed

// SatAdd16 adds two int16 values, saturating at the type bounds.
func SatAdd16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}

// AbsoluteMax clamps v to [-limit, limit]. It is the `absolutemax`
// primitive from Algorithm 2 of the thesis, applied to GEMM outputs as
// `absolutemax(ctmp[j]/32, 32767)`.
func AbsoluteMax(v int32, limit int32) int32 {
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}

// GEMMOutputClamp applies the Algorithm 2 output rescale: divide the
// accumulator by 32 (arithmetic shift) and clamp into int16 range.
func GEMMOutputClamp(acc int32) int16 {
	return int16(AbsoluteMax(acc/32, 32767))
}

// ClampInt16 saturates an int32 into the int16 range.
func ClampInt16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}
