package ebnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// TestBlockChargingParity is the eBNN arm of the differential harness:
// it runs the same inference through the block-charged kernel and the
// per-op legacy kernel on identical systems and asserts the two are
// indistinguishable — predictions, raw result bytes, system cycle
// counts, subroutine profiles, per-DPU instruction mixes and
// per-tasklet breakdowns — across both activation modes and several
// optimization levels.
func TestBlockChargingParity(t *testing.T) {
	m, ds := trainForKernel(t)
	imgs := ds.Test[:19] // 2 DPUs: a full 16-image batch plus a partial one

	for _, useLUT := range []bool{false, true} {
		for _, opt := range []dpu.OptLevel{dpu.O0, dpu.O2, dpu.O3} {
			t.Run(fmt.Sprintf("lut=%v/opt=O%d", useLUT, int(opt)), func(t *testing.T) {
				mk := func(legacy bool) (*Runner, *host.System) {
					sys, err := host.NewSystem(2, host.DefaultConfig(opt))
					if err != nil {
						t.Fatal(err)
					}
					r, err := NewRunner(sys, m, useLUT, 11)
					if err != nil {
						t.Fatal(err)
					}
					r.setLegacyCharging(legacy)
					return r, sys
				}
				rBlock, sysBlock := mk(false)
				rLegacy, sysLegacy := mk(true)

				pBlock, stBlock, err := rBlock.Infer(imgs)
				if err != nil {
					t.Fatalf("block Infer: %v", err)
				}
				pLegacy, stLegacy, err := rLegacy.Infer(imgs)
				if err != nil {
					t.Fatalf("legacy Infer: %v", err)
				}

				if !reflect.DeepEqual(pBlock, pLegacy) {
					t.Errorf("predictions diverge: block %v, legacy %v", pBlock, pLegacy)
				}
				if stBlock.Cycles != stLegacy.Cycles || stBlock.Seconds != stLegacy.Seconds {
					t.Errorf("cycle accounting diverges: block %d cycles / %g s, legacy %d cycles / %g s",
						stBlock.Cycles, stBlock.Seconds, stLegacy.Cycles, stLegacy.Seconds)
				}
				if !reflect.DeepEqual(sysBlock.Profile().Snapshot(), sysLegacy.Profile().Snapshot()) {
					t.Errorf("subroutine profiles diverge:\nblock:  %v\nlegacy: %v",
						sysBlock.Profile().Snapshot(), sysLegacy.Profile().Snapshot())
				}
				for d := 0; d < 2; d++ {
					rawB := readResults(t, rBlock, d, BatchSize*ResultSize)
					rawL := readResults(t, rLegacy, d, BatchSize*ResultSize)
					if !bytes.Equal(rawB, rawL) {
						t.Errorf("DPU %d result bytes diverge", d)
					}
				}

				// Relaunch the resident batch directly to compare the full
				// per-DPU statistics (Infer's engine aggregates them away).
				lsBlock, err := sysBlock.LaunchOn(2, 11, rBlock.kernelFn)
				if err != nil {
					t.Fatal(err)
				}
				lsLegacy, err := sysLegacy.LaunchOn(2, 11, rLegacy.kernelFn)
				if err != nil {
					t.Fatal(err)
				}
				for d := range lsBlock.PerDPU {
					b, l := lsBlock.PerDPU[d], lsLegacy.PerDPU[d]
					if b.IssueSlots != l.IssueSlots || b.DMACycles != l.DMACycles || b.Cycles != l.Cycles {
						t.Errorf("DPU %d cycles diverge: block slots=%d dma=%d cyc=%d, legacy slots=%d dma=%d cyc=%d",
							d, b.IssueSlots, b.DMACycles, b.Cycles, l.IssueSlots, l.DMACycles, l.Cycles)
					}
					if b.OpCounts != l.OpCounts {
						t.Errorf("DPU %d instruction mix diverges:\nblock:  %v\nlegacy: %v",
							d, b.OpCounts, l.OpCounts)
					}
					if !reflect.DeepEqual(b.PerTasklet, l.PerTasklet) {
						t.Errorf("DPU %d per-tasklet breakdown diverges:\nblock:  %v\nlegacy: %v",
							d, b.PerTasklet, l.PerTasklet)
					}
				}
			})
		}
	}
}

// hostileBN is one BN parameter set per way the folded threshold
// (w1-w0) - w4/(w3/w2) can be unlike a trained model's: a negative
// scale, an infinite one, a zero one, NaN, and thresholds of +0, -0,
// +Inf and -Inf.
var hostileBN = func() []BNParams {
	inf, nan, negZero := float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))
	return []BNParams{
		{W0: 0.25, W1: 1.5, W2: 2, W3: 1, W4: -0.75}, // ordinary
		{W1: 2, W2: 3, W3: -1, W4: 1},                // negative scale
		{W1: -3, W2: 0, W3: 1, W4: 1},                // scale +Inf
		{W1: 1, W2: inf, W3: 1, W4: -2},              // scale 0: threshold +Inf
		{W1: 1, W2: inf, W3: 1, W4: 2},               // scale 0: threshold -Inf
		{W1: nan, W2: 1, W3: 1},                      // NaN threshold
		{W2: 1, W3: 1},                               // threshold +0
		{W1: negZero, W2: 1, W3: 1},                  // threshold -0
	}
}()

// TestFunctionIndependentOfPartition: the block kernel runs one flat
// pass on tasklet 0 from per-launch tables; the legacy kernel walks the
// thesis's tasklet-strided image loop one charged operation at a time.
// Over hostile filters, BN words, LUT bytes and images, at tasklet counts on both
// sides of the batch size and at empty, single, partial and full
// batches, the two must leave the same bytes in the whole MRAM result
// buffer (padding and unwritten slots included) and report the same
// per-tasklet breakdown, instruction mix, cycles and subroutine profile.
func TestFunctionIndependentOfPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nf := range []int{1, 3, 8} {
		for _, useLUT := range []bool{true, false} {
			t.Run(fmt.Sprintf("F=%d/lut=%v", nf, useLUT), func(t *testing.T) {
				m := &Model{F: nf, Filters: make([]uint16, nf), Bias: make([]float32, mnist.NumClasses)}
				for range mnist.NumClasses { // NewRunner wants a whole softmax layer
					m.Weights = append(m.Weights, make([]float32, m.FeatureLen()))
				}
				for f := 0; f < nf; f++ {
					m.BN = append(m.BN, hostileBN[(f+nf)%len(hostileBN)])
				}
				// A LUT no BuildLUT emits: not monotone in the conv value,
				// and with bits above the activation bit set.
				lut := make([]byte, lutWRAMSize)
				rng.Read(lut)
				var arms [2]*Runner // block, legacy
				for i := range arms {
					arms[i] = newRunner(t, 1, m, useLUT, 16)
					arms[i].setLegacyCharging(i == 1)
					if _, err := arms[i].sys.DPU(0).Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: arms[i].layout.lutMRAM, Buf: lut}}); err != nil {
						t.Fatal(err)
					}
				}
				filt := make([]byte, 16)
				imgs := make([]byte, BatchSize*mnist.PackedSize)
				stale := bytes.Repeat([]byte{0xA5}, BatchSize*ResultSize)
				for _, T := range []int{1, 5, 16, 24} {
					for _, n := range []int{0, 1, 5, BatchSize} {
						id := fmt.Sprintf("T=%d images=%d", T, n)
						// Filter words from all of [0, 512), duplicates and
						// bits above the ninth included; the first is all
						// zeros or all ones in two launches of three.
						rng.Read(filt)
						if k := byte(rng.Intn(3)); k < 2 {
							filt[0], filt[1] = -k, -k
						}
						// Random bytes set columns 28-31 of every row and
						// the 16 padding bytes too; slots 0 and 1 hold the
						// all-zero and all-one images.
						rng.Read(imgs)
						for i := 0; i < mnist.PackedSize; i++ {
							imgs[i], imgs[mnist.PackedSize+i] = 0, 0xFF
						}
						var st [2]dpu.Stats
						var res [2][]byte
						for i, r := range arms {
							d := r.sys.DPU(0)
							if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: r.layout.filters, Buf: filt}}); err != nil {
								t.Fatal(err)
							}
							if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: r.layout.images, Buf: imgs}}); err != nil {
								t.Fatal(err)
							}
							if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: r.layout.results, Buf: stale}}); err != nil {
								t.Fatal(err)
							}
							var err error
							if st[i], err = launchCount(r, T, n); err != nil {
								t.Fatalf("%s: arm %d: %v", id, i, err)
							}
							st[i].PerTasklet = append([]dpu.TaskletBreakdown(nil), st[i].PerTasklet...)
							res[i] = readResults(t, r, 0, BatchSize*ResultSize)
						}
						if !bytes.Equal(res[0], res[1]) {
							t.Errorf("%s: result bytes diverge from the legacy kernel's", id)
						}
						if !bytes.Equal(res[0][n*ResultSize:], stale[n*ResultSize:]) {
							t.Errorf("%s: result slots past the image count were written", id)
						}
						if !reflect.DeepEqual(st[0], st[1]) {
							t.Errorf("%s: launch statistics diverge:\nblock:  %+v\nlegacy: %+v", id, st[0], st[1])
						}
					}
				}
				if b, l := arms[0].sys.Profile().Snapshot(), arms[1].sys.Profile().Snapshot(); !reflect.DeepEqual(b, l) {
					t.Errorf("subroutine profiles diverge:\nblock:  %v\nlegacy: %v", b, l)
				}
			})
		}
	}
}

// TestPredictPackedMatchesLogits: classifying from the packed result
// bytes is PredictFeatures over their expansion — the same float32
// additions in the same order — for weights whose sums depend on that
// order, and with the bits at and above F set that a result byte never
// carries.
func TestPredictPackedMatchesLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nf := range []int{1, 3, 8} {
		m := &Model{F: nf, Bias: make([]float32, mnist.NumClasses), Weights: make([][]float32, mnist.NumClasses)}
		for c := range m.Weights {
			m.Bias[c] = float32(rng.NormFloat64())
			m.Weights[c] = make([]float32, m.FeatureLen())
			for i := range m.Weights[c] {
				m.Weights[c][i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
			}
		}
		raw, byFeature := make([]byte, ResultSize), m.softmaxByFeature()
		for trial := 0; trial < 200; trial++ {
			rng.Read(raw)
			if got, want := m.predictPacked(byFeature, raw), m.PredictFeatures(DecodeFeatures(raw, nf)); got != want {
				t.Fatalf("F=%d trial %d: predictPacked = %d, PredictFeatures(DecodeFeatures) = %d", nf, trial, got, want)
			}
		}
	}
}
