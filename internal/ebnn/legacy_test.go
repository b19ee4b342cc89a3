package ebnn

import (
	"fmt"
	"math"

	"pimdnn/internal/dpu"
	"pimdnn/internal/mnist"
)

// setLegacyCharging switches the runner between the block-charged kernel
// it ships and the per-op charging form below, by assigning the cached
// kernel closure. Both account for the same operations — the
// differential tests launch each and assert identical cycle counts,
// instruction mixes, subroutine profiles and result bytes.
func (r *Runner) setLegacyCharging(v bool) {
	if v {
		r.kernelFn = r.kernelLegacy()
	} else {
		r.kernelFn = r.kernel()
	}
}

// filtRows is one 3×3 binary filter pre-sliced into its three rows.
type filtRows struct{ f0, f1, f2 uint32 }

// kernelLegacy is the per-op charging form of the DPU program, kept as
// test code: the reference the cost and differential tests hold the
// block-charged kernel to. Each tasklet processes images
// tid, tid+T, tid+2T, ... of the batch (thread-level parallelism of
// §4.3.1); per image it DMAs the packed pixels from MRAM, runs the binary
// convolution + max-pool, applies BN-BinAct either in software floating
// point (default) or via the WRAM LUT, and DMAs the activation bytes back
// to MRAM.
func (r *Runner) kernelLegacy() dpu.KernelFunc {
	l := r.layout
	return func(t *dpu.Tasklet) error {
		nf := l.f
		lutWRAM := l.scratch + dpu.MaxTasklets*perTaskletScratch

		// Tasklet 0 stages the LUT into WRAM before anyone indexes it
		// (§4.1.4: "the DPU copies it from MRAM to WRAM before
		// accessing it"). Tasklets run in ID order in the simulator,
		// standing in for the barrier a hardware program would use.
		if l.useLUT && t.ID() == 0 {
			t.MRAMToWRAM(lutWRAM, l.lutMRAM, lutWRAMSize)
		}

		n := int(int32(t.Load32(l.nimages)))
		if n < 0 || n > BatchSize {
			return fmt.Errorf("ebnn kernel: bad image count %d", n)
		}

		// Load filters and pre-slice each into its three rows. nf <= 8
		// is checked by NewRunner, so fixed-size stack arrays avoid
		// per-launch heap allocation.
		var filters [8]filtRows
		for f := 0; f < nf; f++ {
			w := uint32(uint16(t.Load16(l.filters + int64(f)*2)))
			filters[f] = filtRows{
				f0: t.And32(w, 7),
				f1: t.And32(uint32(t.Shr32(int32(w), 3)), 7),
				f2: t.And32(uint32(t.Shr32(int32(w), 6)), 7),
			}
		}

		// Default model: fold the BN-BinAct block into a float threshold
		// per filter, in DPU software floating point (Fig 4.2a).
		var thresholds [8]uint32
		if !l.useLUT {
			for f := 0; f < nf; f++ {
				base := l.bn + int64(f)*5*4
				w0 := t.Load32(base)
				w1 := t.Load32(base + 4)
				w2 := t.Load32(base + 8)
				w3 := t.Load32(base + 12)
				w4 := t.Load32(base + 16)
				scale := t.FDiv(w3, w2)
				diff := t.FSub(w1, w0)
				corr := t.FDiv(w4, scale)
				thresholds[f] = t.FSub(diff, corr)
			}
		}

		imgBuf := l.scratch + int64(t.ID())*perTaskletScratch
		outBuf := imgBuf + mnist.PackedSize

		T := t.Count()
		for img := t.ID(); img < n; img += T {
			// Fetch the packed image. The MRAM offset is computed with a
			// 16-bit multiply — the __mulsi3 call Fig 4.3(b) shows
			// surviving the LUT rewrite ("tied to a dependent part of
			// the program").
			off := t.Mul16(int16(img), mnist.PackedSize)
			t.MRAMToWRAM(imgBuf, l.images+int64(off), mnist.PackedSize)

			var rows [mnist.Side]uint32
			for row := 0; row < mnist.Side; row++ {
				rows[row] = t.Load32(imgBuf + int64(row)*4)
			}

			for pr := 0; pr < PoolSize; pr++ {
				for pc := 0; pc < PoolSize; pc++ {
					var acc uint32
					for f := 0; f < nf; f++ {
						fr := filters[f]
						best := int32(math.MinInt32)
						for dr := 0; dr < 2; dr++ {
							row := pr*2 + dr
							r0, r1, r2 := rows[row], rows[row+1], rows[row+2]
							for dc := 0; dc < 2; dc++ {
								c := uint(pc*2 + dc)
								w0 := t.And32(uint32(t.Shr32(int32(r0), c)), 7)
								w1 := t.And32(uint32(t.Shr32(int32(r1), c)), 7)
								w2 := t.And32(uint32(t.Shr32(int32(r2), c)), 7)
								x := t.Or32(t.Or32(t.Xor32(w0, fr.f0),
									uint32(t.Shl32(int32(t.Xor32(w1, fr.f1)), 3))),
									uint32(t.Shl32(int32(t.Xor32(w2, fr.f2)), 6)))
								v := t.Sub32(9, t.Shl32(t.Popcount32(x), 1))
								t.Charge(dpu.OpBranch, 1) // max compare
								if v > best {
									best = v
								}
							}
						}
						var bit uint32
						if l.useLUT {
							// LUT path: integer index, WRAM load.
							idx := t.Add32(best, -ConvMin)
							idx = t.Mul16(int16(idx), int16(nf))
							idx = t.Add32(idx, int32(f))
							bit = uint32(t.Load8(lutWRAM+int64(idx))) & 1
						} else {
							// Float path: convert and compare.
							vf := t.FFromInt(best)
							if t.FGe(vf, thresholds[f]) {
								bit = 1
							}
						}
						acc = t.Or32(acc, uint32(t.Shl32(int32(bit), uint(f))))
					}
					cell := int64(pr*PoolSize + pc)
					t.Store8(outBuf+cell, int8(acc))
				}
			}
			roff := t.Mul16(int16(img), ResultSize)
			t.WRAMToMRAM(l.results+int64(roff), outBuf, ResultSize)
		}
		return nil
	}
}
