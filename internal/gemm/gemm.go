// Package gemm implements the fixed-point general matrix multiply of
// thesis Algorithm 2 and its distribution across DPUs (§4.2.3, Fig 4.6).
//
// The quantized YOLOv3 lowers every convolution to GEMM via im2col; the
// GEMM is the only part delegated to the DPUs ("the GEMM functions are
// only delegated to the DPUs instead of mapping the entire convolutional
// layers"). The mapping follows Fig 4.6: each DPU receives one row of A,
// the entirety of B, and produces one row of C; inside a DPU, tasklets
// split the N output columns.
//
// All arithmetic is integer: int16 operands, int32 accumulation with
// C-style wrapping, and the Algorithm 2 output rescale
// absolutemax(acc/32, 32767).
package gemm

import (
	"fmt"

	"pimdnn/internal/fixed"
)

// Reference computes Algorithm 2 on the host, bit-exactly as the DPU
// kernel does: C[i*N+j] = absolutemax((Σ_k ALPHA*A[i*K+k]*B[k*N+j])/32, 32767).
func Reference(m, n, k int, alpha int16, a, b []int16) ([]int16, error) {
	if err := checkDims(m, n, k, a, b); err != nil {
		return nil, err
	}
	c := make([]int16, m*n)
	ctmp := make([]int32, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			apart := int32(alpha) * int32(a[i*k+kk])
			row := b[kk*n : (kk+1)*n]
			for j, bv := range row {
				// int32 wrapping accumulation, as the C kernel does.
				ctmp[j] += apart * int32(bv)
			}
		}
		for j := 0; j < n; j++ {
			c[i*n+j] = fixed.GEMMOutputClamp(ctmp[j])
			ctmp[j] = 0
		}
	}
	return c, nil
}

func checkA(m, n, k int, a []int16) error {
	if m < 1 || n < 1 || k < 1 {
		return fmt.Errorf("gemm: non-positive dims M=%d N=%d K=%d", m, n, k)
	}
	if len(a) != m*k {
		return fmt.Errorf("gemm: A has %d elements, want M*K=%d", len(a), m*k)
	}
	return nil
}

func checkDims(m, n, k int, a, b []int16) error {
	if err := checkA(m, n, k, a); err != nil {
		return err
	}
	if len(b) != k*n {
		return fmt.Errorf("gemm: B has %d elements, want K*N=%d", len(b), k*n)
	}
	return nil
}
