package ebnn

import (
	"math"
	"math/rand"
	"testing"

	"pimdnn/internal/mnist"
)

// TestClassifyLanesMatchPredictPacked: the class lanes' logits are
// logitsPacked's bit for bit — the same float32 additions in the same
// order, per image, whatever the other three images of the pass hold —
// except a NaN's payload: x86 returns the first operand's, and Go does
// not fix which operand of s += w comes first (a -race build computes
// w + s), so a NaN need only meet a NaN.
// Weights span 1e-3…1e3, so a sum's bits depend on its order; classes
// 0, 3, 6 and 9 also draw ±Inf, NaNs with distinct payloads (one
// signalling) and ±MaxFloat32, and every class draws ±0 and denormals.
// Those classes' biases are such values too, and classes 1, 4 and 7
// have a ±0 or denormal bias. Result bytes carry bits at and above F,
// and the four images of a pass are all-zero, all-ones or of very
// unequal densities; an all-ones image fills its list to listCap.
func TestClassifyLanesMatchPredictPacked(t *testing.T) {
	if !useLanes {
		t.Skip("classify runs predictPacked on this host (no AVX2 / OS YMM state or no POPCNT): nothing to compare")
	}
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	tame := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -nan(0x007FFFFF)}
	wild := append([]float32{float32(math.Inf(1)), float32(math.Inf(-1)), nan(0x7FC00001), nan(0xFFC12345),
		nan(0x7F800001), math.MaxFloat32, -math.MaxFloat32}, tame...)
	rng := rand.New(rand.NewSource(41))
	draw := func(c int) float32 {
		switch n := rng.Intn(64); {
		case n == 0 && c%3 == 0:
			return wild[rng.Intn(len(wild))]
		case n < 4:
			return tame[rng.Intn(len(tame))]
		}
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	densities := []float64{0, 0.03, 0.5, 0.97, 1}
	for _, nf := range []int{1, 3, 7, 8} {
		m := &Model{F: nf, Bias: make([]float32, mnist.NumClasses), Weights: make([][]float32, mnist.NumClasses)}
		for c := range m.Weights {
			m.Bias[c] = draw(c)
			switch c % 3 {
			case 0:
				m.Bias[c] = wild[(c+nf)%len(wild)]
			case 1:
				m.Bias[c] = tame[(c+nf)%len(tame)]
			}
			m.Weights[c] = make([]float32, m.FeatureLen())
			for i := range m.Weights[c] {
				m.Weights[c][i] = draw(c)
			}
		}
		byFeature := m.softmaxByFeature()
		res := make([]byte, 4*ResultSize)
		var (
			scratch struct {
				lists [4][listCap]int32
				guard [8]int32 // the last list's whole-row stores must stop short of it
			}
			out [4][laneStride]float32
		)
		for trial := 0; trial < 60; trial++ {
			var dens [4]float64
			for k := range dens {
				dens[k] = densities[(trial+k*(trial/len(densities)+1))%len(densities)]
			}
			for i := range res {
				var b byte
				for bit := 0; bit < 8; bit++ {
					if rng.Float64() < dens[i/ResultSize] {
						b |= 1 << bit
					}
				}
				res[i] = b
			}
			for k := range out {
				for c := range out[k] {
					out[k][c] = nan(0x7FBADBAD)
				}
			}
			m.logits4(&out, &scratch.lists, res, byFeature)
			if scratch.guard != [8]int32{} {
				t.Fatalf("F=%d trial %d: setFeatures wrote past listCap: %v", nf, trial, scratch.guard)
			}
			for k := range out {
				want := m.logitsPacked(byFeature, res[k*ResultSize:(k+1)*ResultSize])
				for c, w := range want {
					if g := out[k][c]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						t.Fatalf("F=%d trial %d densities %v image %d class %d: lanes %#08x (%g), logitsPacked %#08x (%g)",
							nf, trial, dens, k, c, math.Float32bits(g), g, math.Float32bits(w), w)
					}
				}
			}
		}
	}
}
