package ebnn

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/model"
)

// launchCount writes the per-DPU image count and launches the runner's
// current kernel on DPU 0 over whatever the image buffer holds.
func launchCount(r *Runner, tasklets, images int) (dpu.Stats, error) {
	var cnt [8]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(int32(images)))
	d := r.sys.DPU(0)
	if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: r.layout.nimages, Buf: cnt[:]}}); err != nil {
		return dpu.Stats{}, err
	}
	return d.Launch(tasklets, r.kernelFn)
}

// launchRecord is one launch's statistics and subroutine-profile delta.
type launchRecord struct {
	st          dpu.Stats
	occ, cycles map[string]uint64
}

// launchProfiled launches the block (or legacy) kernel on DPU 0 with a
// cleared profile and records the launch.
func launchProfiled(r *Runner, legacy bool, tasklets, images int) (launchRecord, error) {
	r.setLegacyCharging(legacy)
	prof := r.sys.DPU(0).Profile()
	prof.Reset()
	st, err := launchCount(r, tasklets, images)
	rec := launchRecord{st: st, occ: prof.Snapshot(), cycles: map[string]uint64{}}
	rec.st.PerTasklet = append([]dpu.TaskletBreakdown(nil), st.PerTasklet...)
	for _, name := range prof.Subroutines() {
		rec.cycles[name] = prof.Cycles(name)
	}
	return rec, err
}

// TestKernelChargesTheCostFunction holds every tasklet of the eBNN
// kernel — LUT and float, O0–O3, tasklet counts on both sides of the
// batch size, an empty, a one-image, a partial and a full batch — to
// model.EBNNCost and to the legacy per-operation kernel, and each
// launch's instruction mix and subroutine profile to the legacy kernel's.
// The calibration report compares only the slowest DPU's cycles per
// wave, so a charge on the wrong tasklet could hide there. The first
// shape launched again after the sweep, a cost-cache hit, charges the
// same.
func TestKernelChargesTheCostFunction(t *testing.T) {
	m, _ := trainForKernel(t)
	for _, useLUT := range []bool{true, false} {
		for opt := dpu.O0; opt <= dpu.O3; opt++ {
			t.Run(fmt.Sprintf("lut=%v/O%d", useLUT, int(opt)), func(t *testing.T) {
				sys, err := host.NewSystem(1, host.DefaultConfig(opt))
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(sys, m, useLUT, 16)
				if err != nil {
					t.Fatal(err)
				}
				sh := CostShape(m.F, useLUT)
				var first *launchRecord
				for _, T := range []int{1, 2, 8, 11, 16, 24} {
					for _, images := range []int{5, 0, 1, BatchSize} {
						id := fmt.Sprintf("T=%d images=%d", T, images)
						want := model.Tally(opt, T, func(mt model.Meter, tk int) {
							model.EBNNCost(mt, tk, T, images, sh)
						})
						got, err := launchProfiled(r, false, T, images)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if first == nil {
							first = &got
						}
						ref, err := launchProfiled(r, true, T, images)
						if err != nil {
							t.Fatalf("%s: legacy: %v", id, err)
						}
						for tk := 0; tk < T; tk++ {
							if got.st.PerTasklet[tk] != want[tk] {
								t.Errorf("%s: tasklet %d charged %+v, cost function says %+v", id, tk, got.st.PerTasklet[tk], want[tk])
							}
							if ref.st.PerTasklet[tk] != want[tk] {
								t.Errorf("%s: tasklet %d: legacy kernel charged %+v, cost function says %+v", id, tk, ref.st.PerTasklet[tk], want[tk])
							}
						}
						if c := model.EBNNWaveCycles(sh, images, T, opt); got.st.Cycles != c || ref.st.Cycles != c {
							t.Errorf("%s: %d cycles (legacy %d), evaluation says %d", id, got.st.Cycles, ref.st.Cycles, c)
						}
						if got.st.OpCounts != ref.st.OpCounts {
							t.Errorf("%s: instruction mix diverges from legacy:\nblock:  %v\nlegacy: %v", id, got.st.OpCounts, ref.st.OpCounts)
						}
						if !reflect.DeepEqual(got.occ, ref.occ) || !reflect.DeepEqual(got.cycles, ref.cycles) {
							t.Errorf("%s: profile diverges from legacy:\nblock:  %v %v\nlegacy: %v %v", id, got.occ, got.cycles, ref.occ, ref.cycles)
						}
						if !useLUT && images > 0 && len(ref.occ) == 0 {
							t.Errorf("%s: the float kernel recorded no subroutine", id)
						}
					}
				}
				again, err := launchProfiled(r, false, 1, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, *first) {
					t.Errorf("T=1 images=5 again: %+v, first launch %+v", again, *first)
				}
			})
		}
	}
}

// TestKernelRejectsHostileImageCount: an image count the host could not
// have written fails the launch with an error, not a panic or a read
// past the image buffer.
func TestKernelRejectsHostileImageCount(t *testing.T) {
	m, _ := trainForKernel(t)
	for _, useLUT := range []bool{true, false} {
		r := newRunner(t, 1, m, useLUT, 16)
		for _, images := range []int{-1, BatchSize + 1} {
			if _, err := launchCount(r, 16, images); err == nil {
				t.Errorf("lut=%v: image count %d: launch succeeded", useLUT, images)
			}
		}
		if _, err := launchCount(r, 16, BatchSize); err != nil {
			t.Errorf("lut=%v: full batch rejected after a bad launch: %v", useLUT, err)
		}
	}
}
