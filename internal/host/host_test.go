package host

import (
	"bytes"
	"testing"

	"pimdnn/internal/dpu"
)

func newTestSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := NewSystem(n, DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

// resolve returns the transfer handle of an allocated symbol.
func resolve(t testing.TB, s *System, name string) SymbolRef {
	t.Helper()
	ref, err := s.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// gatherAll reads n bytes of ref from every DPU into fresh buffers.
func gatherAll(s *System, ref SymbolRef, offset int64, n int) ([][]byte, error) {
	out := make([][]byte, s.NumDPUs())
	for i := range out {
		out[i] = make([]byte, n)
	}
	return out, s.GatherXferRefInto(ref, offset, n, out)
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig(dpu.O0)
	if _, err := NewSystem(0, cfg); err == nil {
		t.Error("0 DPUs accepted")
	}
	if _, err := NewSystem(dpu.SystemDPUs+1, cfg); err == nil {
		t.Error("over-system allocation accepted")
	}
	bad := cfg
	bad.TransferBandwidth = 0
	if _, err := NewSystem(1, bad); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestBroadcastCopy(t *testing.T) {
	s := newTestSystem(t, 4)
	if err := s.AllocMRAM("weights", 64); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 32)
	if err := s.CopyToSymbolRef(resolve(t, s, "weights"), 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := gatherAll(s, resolve(t, s, "weights"), 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if !bytes.Equal(b, data) {
			t.Errorf("DPU %d readback mismatch", i)
		}
	}
}

func TestPushXferScatters(t *testing.T) {
	s := newTestSystem(t, 3)
	if err := s.AllocMRAM("input", 64); err != nil {
		t.Fatal(err)
	}
	buffers := [][]byte{
		bytes.Repeat([]byte{1}, 16),
		bytes.Repeat([]byte{2}, 16),
		bytes.Repeat([]byte{3}, 16),
	}
	if err := s.PushXferRef(resolve(t, s, "input"), 0, buffers); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if b := mramOf(t, s, i, resolve(t, s, "input")); b[0] != byte(i+1) {
			t.Errorf("DPU %d got %d, want %d", i, b[0], i+1)
		}
	}
}

func TestPushXferValidation(t *testing.T) {
	s := newTestSystem(t, 2)
	if err := s.AllocMRAM("input", 64); err != nil {
		t.Fatal(err)
	}
	if err := s.PushXferRef(resolve(t, s, "input"), 0, [][]byte{make([]byte, 8)}); err == nil {
		t.Error("buffer-count mismatch accepted")
	}
	if err := s.PushXferRef(resolve(t, s, "input"), 0, [][]byte{make([]byte, 8), make([]byte, 16)}); err == nil {
		t.Error("ragged buffer lengths accepted")
	}
}

func TestSymbolBounds(t *testing.T) {
	s := newTestSystem(t, 1)
	if err := s.AllocMRAM("buf", 32); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyToSymbolRef(resolve(t, s, "buf"), 16, make([]byte, 24)); err == nil {
		t.Error("overflow of symbol accepted")
	}
	if _, err := s.Resolve("nosuch"); err == nil {
		t.Error("unknown symbol resolved")
	}
	if _, err := gatherAll(s, resolve(t, s, "buf"), -8, 8); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestWRAMSymbolTransfer(t *testing.T) {
	s := newTestSystem(t, 2)
	if _, err := s.Alloc(dpu.Layout{{Name: "nimages", Kind: dpu.SymbolWRAM, Size: 8}}); err != nil {
		t.Fatal(err)
	}
	// WRAM host variables do not need 8-byte granularity.
	if err := s.CopyToSymbolRef(resolve(t, s, "nimages"), 0, []byte{16, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4)
	if _, err := s.DPU(1).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: resolve(t, s, "nimages").off, Buf: b}}); err != nil {
		t.Fatal(err)
	}
	if b[0] != 16 {
		t.Errorf("WRAM var = %d, want 16", b[0])
	}
}

func TestLaunchParallelMax(t *testing.T) {
	s := newTestSystem(t, 4)
	// DPU i does (i+1)*100 adds; system time is the max (DPU 3).
	ls, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		// Every DPU runs the same kernel; differentiate via WRAM state
		// is overkill here — charge uniformly and check aggregation.
		tk.Charge(dpu.OpAddInt, 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.PerDPU) != 4 {
		t.Fatalf("PerDPU len = %d", len(ls.PerDPU))
	}
	for i, st := range ls.PerDPU {
		if st.Cycles != ls.PerDPU[0].Cycles {
			t.Errorf("DPU %d cycles %d differ", i, st.Cycles)
		}
	}
	if ls.Cycles != ls.PerDPU[0].Cycles {
		t.Errorf("system cycles %d != max %d", ls.Cycles, ls.PerDPU[0].Cycles)
	}
	if ls.Seconds <= 0 || ls.Time <= 0 {
		t.Error("non-positive launch time")
	}
}

func TestLaunchOnSubset(t *testing.T) {
	s := newTestSystem(t, 8)
	ls, err := s.LaunchOn(3, 2, func(tk *dpu.Tasklet) error {
		tk.Charge(dpu.OpAddInt, 10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.PerDPU) != 3 {
		t.Errorf("LaunchOn(3) ran %d DPUs", len(ls.PerDPU))
	}
	if _, err := s.LaunchOn(9, 1, func(tk *dpu.Tasklet) error { return nil }); err == nil {
		t.Error("LaunchOn beyond system size accepted")
	}
	if _, err := s.LaunchOn(0, 1, func(tk *dpu.Tasklet) error { return nil }); err == nil {
		t.Error("LaunchOn(0) accepted")
	}
}

func TestLaunchPropagatesKernelError(t *testing.T) {
	s := newTestSystem(t, 2)
	_, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		tk.Load8(-1) // traps
		return nil
	})
	if err == nil {
		t.Error("kernel fault not propagated")
	}
}

func TestClocksAccumulate(t *testing.T) {
	s := newTestSystem(t, 2)
	if err := s.AllocMRAM("x", 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyToSymbolRef(resolve(t, s, "x"), 0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if s.HostTransferTime() <= 0 {
		t.Error("host clock did not advance")
	}
	if _, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		tk.Charge(dpu.OpAddInt, 1000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.DPUTime() <= 0 {
		t.Error("DPU clock did not advance")
	}
	s.ResetClocks()
	if s.HostTransferTime() != 0 || s.DPUTime() != 0 {
		t.Error("ResetClocks did not zero")
	}
}

func TestTransferStats(t *testing.T) {
	s := newTestSystem(t, 4)
	if err := s.AllocMRAM("x", 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyToSymbolRef(resolve(t, s, "x"), 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	st := s.TransferStats()
	if st.Transfers != 1 {
		t.Errorf("Transfers = %d, want 1", st.Transfers)
	}
	if st.Bytes != 512*4 { // broadcast to 4 DPUs
		t.Errorf("Bytes = %d, want 2048", st.Bytes)
	}
	if st.Time <= 0 {
		t.Error("no transfer time")
	}
	if _, err := gatherAll(s, resolve(t, s, "x"), 0, 64); err != nil {
		t.Fatal(err)
	}
	st = s.TransferStats()
	if st.Transfers != 2 || st.Bytes != 512*4+64*4 {
		t.Errorf("after gather: %+v", st)
	}
	s.ResetClocks()
	if st := s.TransferStats(); st.Transfers != 0 || st.Bytes != 0 || st.Time != 0 {
		t.Errorf("ResetClocks left %+v", st)
	}
}

func TestSharedProfile(t *testing.T) {
	s := newTestSystem(t, 3)
	if _, err := s.LaunchOn(s.NumDPUs(), 1, func(tk *dpu.Tasklet) error {
		tk.FAdd(1, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Profile().Occ("__addsf3"); got != 3 {
		t.Errorf("aggregate __addsf3 occ = %d, want 3 (one per DPU)", got)
	}
}

func TestPad8(t *testing.T) {
	tests := []struct {
		give     int
		wantLen  int
		wantOrig int
	}{
		{0, 0, 0},
		{1, 8, 1},
		{7, 8, 7},
		{8, 8, 8},
		{9, 16, 9},
		{784, 784, 784}, // one MNIST image is already 8-aligned
	}
	for _, tt := range tests {
		p, orig := Pad8(make([]byte, tt.give))
		if len(p) != tt.wantLen || orig != tt.wantOrig {
			t.Errorf("Pad8(len %d) = len %d orig %d, want %d/%d",
				tt.give, len(p), orig, tt.wantLen, tt.wantOrig)
		}
	}
}

func TestPad8PreservesContent(t *testing.T) {
	in := []byte{1, 2, 3}
	p, _ := Pad8(in)
	if p[0] != 1 || p[1] != 2 || p[2] != 3 || p[3] != 0 {
		t.Errorf("Pad8 content = %v", p)
	}
}

func TestCopyToDPUIndexValidation(t *testing.T) {
	s := newTestSystem(t, 2)
	if err := s.AllocMRAM("x", 16); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyToDPURef(5, resolve(t, s, "x"), 0, make([]byte, 8)); err == nil {
		t.Error("out-of-range DPU index accepted")
	}
	if err := s.CopyToDPURef(-1, resolve(t, s, "x"), 0, make([]byte, 8)); err == nil {
		t.Error("negative DPU index accepted")
	}
}
