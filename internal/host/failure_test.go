package host

import (
	"fmt"
	"strings"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/model"
)

// markBad leaves a byte in DPU i's WRAM at 0 by which a kernel tells that
// DPU from the others: a kernel has no handle on its DPU.
func markBad(t *testing.T, s *System, i int) {
	t.Helper()
	if _, err := s.DPU(i).Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: 0, Buf: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchSingleDPUFailure: a fault on one DPU of a parallel launch
// must surface as an error naming that DPU, and the system must remain
// usable afterwards.
func TestLaunchSingleDPUFailure(t *testing.T) {
	s := newTestSystem(t, 4)
	markBad(t, s, 2)
	_, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		if tk.Load8(0) != 0 {
			return fmt.Errorf("injected failure")
		}
		tk.Charge(dpu.OpAddInt, 10)
		return nil
	})
	if err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if !strings.Contains(err.Error(), "DPU 2") {
		t.Errorf("error does not name the failing DPU: %v", err)
	}
	// The system still works.
	if _, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error { return nil }); err != nil {
		t.Errorf("system unusable after failure: %v", err)
	}
}

// TestLaunchTrapOnOneDPU: a memory trap (not an error return) on one DPU
// propagates the same way.
func TestLaunchTrapOnOneDPU(t *testing.T) {
	s := newTestSystem(t, 3)
	markBad(t, s, 0)
	_, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		if tk.Load8(0) != 0 {
			tk.Load8(-1) // trap
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "memory fault") {
		t.Errorf("trap not propagated: %v", err)
	}
}

func TestGatherUnknownSymbol(t *testing.T) {
	s := newTestSystem(t, 2)
	if _, err := s.Resolve("missing"); err == nil {
		t.Error("unknown symbol resolved")
	}
	// The zero handle — what a caller ignoring that error would hold —
	// is refused by the transfer itself.
	if _, err := gatherAll(s, SymbolRef{}, 0, 8); err == nil {
		t.Error("gather through an unresolved handle accepted")
	}
	if err := s.PushXferRef(SymbolRef{}, 0, nil); err == nil {
		t.Error("push of no buffers through an unresolved handle accepted")
	}
}

func TestPushXferOverflowsSymbol(t *testing.T) {
	s := newTestSystem(t, 2)
	if _, err := s.Alloc(dpu.Layout{{Name: "small", Kind: dpu.SymbolWRAM, Size: 8}}); err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
	if err := s.PushXferRef(resolve(t, s, "small"), 0, bufs); err == nil {
		t.Error("overflowing push accepted")
	}
}

// TestAllocFailurePropagatesPerDPU: exhausting WRAM on every DPU reports
// which DPU refused.
func TestAllocFailurePropagatesPerDPU(t *testing.T) {
	s := newTestSystem(t, 2)
	if _, err := s.Alloc(dpu.Layout{{Name: "big", Kind: dpu.SymbolWRAM, Size: dpu.DefaultWRAMSize - 512}}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Alloc(dpu.Layout{{Name: "more", Kind: dpu.SymbolWRAM, Size: 4096}})
	if err == nil {
		t.Fatal("over-allocation accepted")
	}
	if !strings.Contains(err.Error(), "DPU 0") {
		t.Errorf("error does not name the DPU: %v", err)
	}

	// A failed Alloc defines nothing: a GEMM runner's layout at 24
	// tasklets overflows WRAM in its last row, and the same layout at 20
	// then fits on the same System (256 is gemm.DefaultTileCols).
	s = newTestSystem(t, 3)
	if _, err := s.Alloc(model.GEMMLayout(9216, 8, 256, 24, 0, 0)); err == nil {
		t.Fatal("GEMM layout at 24 tasklets fit WRAM")
	}
	for i := 0; i < s.NumDPUs(); i++ {
		if _, ok := s.DPU(i).Symbol("gemm_a_row"); ok || s.DPU(i).WRAMFree() != dpu.DefaultWRAMSize {
			t.Errorf("DPU %d keeps a failed Alloc's rows", i)
		}
	}
	if _, err := s.Alloc(model.GEMMLayout(9216, 8, 256, 20, 0, 0)); err != nil {
		t.Errorf("GEMM layout at 20 tasklets after a failed one: %v", err)
	}
}

// TestEnergyAccumulates: launch energy is per-DPU time x 120 mW.
func TestEnergyAccumulates(t *testing.T) {
	s := newTestSystem(t, 4)
	ls, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		tk.Charge(dpu.OpAddInt, 35000) // 385000 cycles = 1.1 ms per DPU
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Energy sums each participating DPU's time x 120 mW.
	var want float64
	for _, st := range ls.PerDPU {
		want += st.Seconds * dpu.DPUPowerW
	}
	if want <= 0 {
		t.Fatal("no energy expected?")
	}
	if ls.EnergyJ < want*0.999 || ls.EnergyJ > want*1.001 {
		t.Errorf("EnergyJ = %g, want %g", ls.EnergyJ, want)
	}
	// Sanity: per-DPU energy is time x power.
	st := ls.PerDPU[0]
	if st.EnergyJ != st.Seconds*dpu.DPUPowerW {
		t.Errorf("per-DPU energy %g != %g", st.EnergyJ, st.Seconds*dpu.DPUPowerW)
	}
}
