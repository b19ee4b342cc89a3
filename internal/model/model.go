// Package model implements the thesis's chapter 5 analytic performance
// model for processing-in-memory architectures.
//
// The generic model (Eq 5.1) splits latency into computation and memory
// movement:
//
//	Ttot  = Tmem + Tcomp                        (5.1)
//	Tcomp = Ccomp / Freq                        (5.2)
//	Ccomp = Cop * ceil(TOPs / PEs)              (5.3)
//	Cop   = f(x) * C_BB * Dp                    (5.4, piecewise 5.5/5.6)
//	Tmem  = Ttransfer * ceil(TOPs / (PEs * sizebuf/(2*Lenop)))   (5.10)
//
// Per-PIM Cop functions follow Eq 5.7 (DRISA, bitwise), Eq 5.8 (UPMEM,
// pipelined CPU) and Eq 5.9 + Algorithm 3 (pPIM, LUT). The package
// reproduces Tables 5.1-5.3 exactly and provides the Table 5.4 / Fig 5.7
// benchmarking of seven PIM devices on eBNN and YOLOv3.
package model

import "math"

// AlexNetTOPs is the MAC count of AlexNet used throughout chapter 5
// (Table 5.1 row 9).
const AlexNetTOPs = 2.59e9

// Granularity classifies a PIM's processing-element design on the
// fine-to-coarse spectrum of Fig 5.1.
type Granularity int

// Granularities (Fig 5.1).
const (
	Bitwise Granularity = iota + 1
	LUT
	PipelinedCPU
)

func (g Granularity) String() string {
	switch g {
	case Bitwise:
		return "bitwise"
	case LUT:
		return "LUT"
	case PipelinedCPU:
		return "pipelined-CPU"
	default:
		return "granularity?"
	}
}

// PIM describes one architecture's model parameters.
type PIM struct {
	Name        string
	Granularity Granularity
	// Dp is the pipeline depth (Eq 5.4); 1 for unpipelined designs.
	Dp float64
	// CBB is the cycles per building-block execution (Eq 5.4).
	CBB float64
	// PEs is the number of parallel processing elements.
	PEs float64
	// FreqHz is the operating frequency.
	FreqHz float64
	// AccumScale is the accumulate-operation scale function f(x) in
	// building-block executions for an operand of x bits.
	AccumScale func(bits int) float64
	// MultScale is the multiply scale function f(x). Exact values come
	// from literature; estimated values use the thesis's estimation
	// methods (Alg 3 for pPIM, curve fit for DRISA, subroutine size for
	// UPMEM).
	MultScale func(bits int) float64
	// TtransferS is the external-to-local memory transfer time used by
	// the memory model (Eq 5.10, Table 5.3).
	TtransferS float64
	// SizeBufBits is the local buffer capacity per PE in bits.
	SizeBufBits float64
}

// MultCop returns Cop for one multiplication (Eq 5.4): MultScale × CBB × Dp.
func (p PIM) MultCop(bits int) float64 {
	return p.MultScale(bits) * p.CBB * p.Dp
}

// AccumCop returns Cop for one accumulate.
func (p PIM) AccumCop(bits int) float64 {
	return p.AccumScale(bits) * p.CBB * p.Dp
}

// MACCop returns Cop for one multiply-accumulate, the thesis's
// fundamental operation (Table 5.1 row 6 = rows 4+5 through Eq 5.4).
func (p PIM) MACCop(bits int) float64 {
	return (p.MultScale(bits) + p.AccumScale(bits)) * p.CBB * p.Dp
}

// Ccomp evaluates Eq 5.3 for the given per-operation cycles.
func Ccomp(cop, tops, pes float64) float64 {
	return cop * math.Ceil(tops/pes)
}

// Tcomp evaluates Eq 5.2/5.3.
func (p PIM) Tcomp(cop, tops float64) float64 {
	return Ccomp(cop, tops, p.PEs) / p.FreqHz
}

// OpsPerPE is the operand-pair capacity of one PE's local buffer:
// sizebuf / (2 * Lenop) (Eq 5.10 — two operands per operation).
func (p PIM) OpsPerPE(bits int) float64 {
	return math.Floor(p.SizeBufBits / (2 * float64(bits)))
}

// LocalOps is the whole system's locally-stageable operation count.
func (p PIM) LocalOps(bits int) float64 {
	return p.OpsPerPE(bits) * p.PEs
}

// Tmem evaluates Eq 5.10.
func (p PIM) Tmem(tops float64, bits int) float64 {
	return p.TtransferS * math.Ceil(tops/p.LocalOps(bits))
}

// Ttot evaluates Eq 5.1 for a MAC workload of tops operations. The
// thesis's model "assumes an unoptimized, worst case PIM solution that
// does not contain any overlap between memory transfer time and
// computation time" (§5.1), so the two terms add.
func (p PIM) Ttot(tops float64, bits int) float64 {
	return p.Tmem(tops, bits) + p.Tcomp(p.MACCop(bits), tops)
}

// TtotOverlapped is the best-case counterpart the thesis's worst-case
// assumption brackets: with perfect double-buffering, memory transfer
// hides behind computation and the total is their maximum. Real systems
// land between Ttot and TtotOverlapped.
func (p PIM) TtotOverlapped(tops float64, bits int) float64 {
	tmem := p.Tmem(tops, bits)
	tcomp := p.Tcomp(p.MACCop(bits), tops)
	if tmem > tcomp {
		return tmem
	}
	return tcomp
}

// --- the three modeled architectures of §5.2 ---

// UPMEM returns the pipelined-CPU model of Eq 5.8: Dp = 11, one cycle per
// instruction stage, with multiplication lowered to subroutines at and
// above 16 bits. The scale values reproduce Tables 5.1 and 5.2 (g(4) =
// g(8) = 4 instructions; 16- and 32-bit values estimated from the
// compiler-rt subroutines).
func UPMEM() PIM {
	return PIM{
		Name:        "UPMEM",
		Granularity: PipelinedCPU,
		Dp:          11,
		CBB:         1,
		PEs:         2560,
		FreqHz:      3.5e8,
		AccumScale: func(bits int) float64 {
			return 4 // add cycles are precision-independent (Table 3.1)
		},
		MultScale: func(bits int) float64 {
			switch {
			case bits <= 8:
				return 4 // g(4) = g(8) = 4 [31]
			case bits <= 16:
				return 370.0 / 11 // estimated subroutine size (Table 5.2)
			default:
				return 570.0 / 11
			}
		},
		TtransferS:  9.6e-5,
		SizeBufBits: 512000, // WRAM, 64 KB as counted in Table 5.3
	}
}

// PPIM returns the LUT model of Eq 5.9: single-cycle LUT building blocks,
// no pipeline. Multiplication scale uses literature values for 4/8 bits
// and Algorithm 3's worst-case estimate beyond (Table 5.2).
func PPIM() PIM {
	return PIM{
		Name:        "pPIM",
		Granularity: LUT,
		Dp:          1,
		CBB:         1,
		PEs:         256,
		FreqHz:      1.25e9,
		AccumScale: func(bits int) float64 {
			// One LUT pass per 4-bit block pair: 2 for 8-bit operands
			// (Table 5.1 row 4).
			v := float64(bits) / 4
			if v < 1 {
				v = 1
			}
			return v
		},
		MultScale: func(bits int) float64 {
			switch {
			case bits <= 4:
				return 1 // literature [16]
			case bits <= 8:
				return 6 // literature [16]
			default:
				return float64(PPIMMultEstimate(bits))
			}
		},
		TtransferS:  6.7e-9,
		SizeBufBits: 256,
	}
}

// DRISA returns the bitwise model of Eq 5.7 (the 3T1C organization used
// in Table 5.1). Accumulation is a ripple of bit-serial additions
// (x + log2 x); multiplication follows the thesis's curve fit over the
// literature values 110/200/380, extrapolating 740 at 32 bits
// (Table 5.2): f(x) = 20 + 22.5x.
func DRISA() PIM {
	return PIM{
		Name:        "DRISA",
		Granularity: Bitwise,
		Dp:          1,
		CBB:         1,
		PEs:         32768,
		FreqHz:      1.19e8,
		AccumScale: func(bits int) float64 {
			return float64(bits) + math.Log2(float64(bits))
		},
		MultScale: func(bits int) float64 {
			return 20 + 22.5*float64(bits)
		},
		TtransferS:  9.0e-8,
		SizeBufBits: 1048576, // subarray region per PE (Table 5.3)
	}
}

// Architectures returns the three §5.2 models in the thesis's column
// order for Tables 5.1-5.3.
func Architectures() []PIM {
	return []PIM{PPIM(), DRISA(), UPMEM()}
}
