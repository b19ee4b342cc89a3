package ebnn

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
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
					r.SetLegacyCharging(legacy)
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
