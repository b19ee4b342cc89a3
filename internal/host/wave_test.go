package host

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"pimdnn/internal/dpu"
)

// waveSystem allocates a small system with one MRAM scratch symbol.
func waveSystem(t *testing.T, n int) (*System, SymbolRef) {
	t.Helper()
	s := newTestSystem(t, n)
	t.Cleanup(s.Close)
	if err := s.AllocMRAM("wbuf", 256); err != nil {
		t.Fatal(err)
	}
	ref, err := s.Resolve("wbuf")
	if err != nil {
		t.Fatal(err)
	}
	return s, ref
}

// TestWaveMatchesDiscreteCommands: one fused wave must move the same
// data and report the same launch statistics as the discrete
// scatter/launch/gather sequence.
func TestWaveMatchesDiscreteCommands(t *testing.T) {
	s, ref := waveSystem(t, 4)
	if err := s.AllocMRAM("wout", 64); err != nil {
		t.Fatal(err)
	}
	oref, err := s.Resolve("wout")
	if err != nil {
		t.Fatal(err)
	}
	// Kernel: copy the first 16 bytes of qbuf into qout, negated.
	kernel := func(tk *dpu.Tasklet) error {
		buf := make([]byte, 16)
		tk.ReadMRAM(ref.off, buf)
		for i := range buf {
			buf[i] = ^buf[i]
		}
		tk.ChargeBulk(dpu.OpAddInt, 16)
		tk.WriteMRAM(oref.off, buf)
		return nil
	}
	in := make([][]byte, 3)
	out := make([][]byte, 3)
	for i := range in {
		in[i] = bytes.Repeat([]byte{byte(0x10 * (i + 1))}, 16)
		out[i] = make([]byte, 16)
	}
	var ws LaunchStats
	if err := s.RunWave(Wave{
		DPUs: 3, Tasklets: 1, Kernel: kernel, Stats: &ws,
		Scatter: ref, In: in,
		Gather: oref, Out: out,
	}); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j, b := range out[i] {
			if b != ^in[i][j] {
				t.Fatalf("DPU %d byte %d: got %#x want %#x", i, j, b, ^in[i][j])
			}
		}
	}
	// Discrete replay on the same system: identical stats.
	full := [][]byte{in[0], in[1], in[2], make([]byte, 16)}
	if err := s.PushXferRef(ref, 0, full); err != nil {
		t.Fatal(err)
	}
	direct, err := s.LaunchOn(3, 1, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Cycles != direct.Cycles || ws.Seconds != direct.Seconds {
		t.Errorf("wave stats (%d cycles) != discrete stats (%d cycles)", ws.Cycles, direct.Cycles)
	}
	if len(ws.PerDPU) != 3 {
		t.Errorf("wave PerDPU has %d entries, want 3", len(ws.PerDPU))
	}

	// A one-DPU wave on DPU 3, in rank 1 of two, charges what a copy to
	// it, a launch on it and a copy from it charged: two flat transfers
	// and the DPU's own launch time; a trap there reports DPU 3.
	s2 := topoSystem(t, 4, Topology{DPUsPerRank: 2})
	t.Cleanup(s2.Close)
	if err := s2.AllocMRAM("wbuf", 256); err != nil || s2.AllocMRAM("wout", 64) != nil {
		t.Fatal("allocating the wave's symbols")
	}
	flat := s2.cfg.TransferLatency + time.Duration(16/s2.cfg.TransferBandwidth*float64(time.Second))
	one := Wave{Start: 3, DPUs: 1, Tasklets: 1, Kernel: kernel, Stats: &ws,
		Scatter: ref, In: in[:1], Gather: oref, Out: [][]byte{make([]byte, 16)}}
	if err := s2.RunWave(one); err != nil || !bytes.Equal(one.Out[0], out[0]) {
		t.Fatalf("one-DPU wave: %v, output % x", err, one.Out[0])
	}
	cyc := s2.DPU(3).TotalCycles()
	if got, want := s2.TransferStats(), (XferStats{Transfers: 2, Bytes: 32, Time: 2 * flat}); got != want {
		t.Errorf("one-DPU wave charged %+v, the three calls %+v", got, want)
	}
	if want := time.Duration(float64(cyc) / s2.cfg.DPU.FrequencyHz * float64(time.Second)); s2.DPUTime() != want || ws.Cycles != cyc {
		t.Errorf("one-DPU wave: DPUTime %v, %d cycles; DPU 3 ran %v, %d cycles", s2.DPUTime(), ws.Cycles, want, cyc)
	}
	armOne(s2, 3, dpu.FaultPlan{Seed: 1, TrapProb: 1})
	err = s2.RunWave(one)
	if rep, ok := AsFaultReport(err); !ok || rep.Attempted != 1 || len(rep.Faults) != 1 || rep.Faults[0].DPU != 3 {
		t.Errorf("trapped one-DPU wave: %v", err)
	}
}

// TestWaveFaultSurfacesDPU: a wave whose kernel traps on one DPU
// reports that DPU in a *FaultReport, while the other DPUs complete
// their full scatter→launch→gather.
func TestWaveFaultSurfacesDPU(t *testing.T) {
	s, ref := waveSystem(t, 3)
	markBad(t, s, 2)
	in := make([][]byte, 3)
	out := make([][]byte, 3)
	for i := range in {
		in[i] = bytes.Repeat([]byte{byte(i + 1)}, 8)
		out[i] = make([]byte, 8)
	}
	err := s.RunWave(Wave{
		DPUs: 3, Tasklets: 1,
		Kernel: func(tk *dpu.Tasklet) error {
			if tk.Load8(0) != 0 {
				tk.Load8(-1) // memory trap
			}
			return nil
		},
		Scatter: ref, In: in, Gather: ref, Out: out,
	})
	if err == nil || !strings.Contains(err.Error(), "DPU 2") || !strings.Contains(err.Error(), "memory fault") {
		t.Errorf("wave trap not attributed: %v", err)
	}
	rep, ok := AsFaultReport(err)
	if !ok || len(rep.Faults) != 1 || rep.Faults[0].DPU != 2 {
		t.Errorf("wave fault report: %v", err)
	}
	// The surviving DPUs finished their round trip.
	for i := 0; i < 2; i++ {
		if !bytes.Equal(out[i], in[i]) {
			t.Errorf("surviving DPU %d did not complete its wave", i)
		}
	}
}

// TestDoubleClose: Close is idempotent, including two concurrent
// calls after work has run.
func TestDoubleClose(t *testing.T) {
	s, err := NewSystem(2, DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LaunchOn(2, 1, func(tk *dpu.Tasklet) error {
		tk.ChargeBulk(dpu.OpAddInt, 1000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close() // third close: still a no-op
}

// TestWaveValidation: malformed waves fail with a clear error, and
// nothing runs, rather than panicking mid-wave.
func TestWaveValidation(t *testing.T) {
	s, ref := waveSystem(t, 2)
	nop := func(tk *dpu.Tasklet) error { return nil }
	cases := []Wave{
		{DPUs: 0, Tasklets: 1, Kernel: nop},
		{DPUs: 3, Tasklets: 1, Kernel: nop},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Scatter: ref, In: [][]byte{make([]byte, 8)}},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Scatter: ref, In: [][]byte{make([]byte, 8), make([]byte, 16)}},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Gather: ref, Out: [][]byte{make([]byte, 512), make([]byte, 512)}},
	}
	for i, w := range cases {
		err := s.RunWave(w)
		if err == nil {
			t.Errorf("malformed wave %d accepted", i)
		}
		if _, ok := AsFaultReport(err); ok {
			t.Errorf("malformed wave %d reported as a partial failure: %v", i, err)
		}
	}
	if s.TransferStats() != (XferStats{}) || s.DPUTime() != 0 {
		t.Errorf("malformed waves charged %+v, DPU time %v", s.TransferStats(), s.DPUTime())
	}
}

// TestGatherRowsValidation: a wave whose in-place gather reads a WRAM
// symbol, runs past the symbol's end, has unaligned rows or spans a
// width outside 1..NumDPUs is an ordinary error; nothing is launched,
// visited or charged.
func TestGatherRowsValidation(t *testing.T) {
	s, ref := waveSystem(t, 2)
	if _, err := s.Alloc(dpu.Layout{{Name: "wvar", Kind: dpu.SymbolWRAM, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	wram := resolve(t, s, "wvar")
	visited := false
	visit := func(int, int, int, []byte, int) { visited = true }
	nop := func(*dpu.Tasklet) error { return nil }
	cases := []struct {
		name                 string
		ref                  SymbolRef
		dpus, rows, rowBytes int
	}{
		{"wram", wram, 2, 1, 8},
		{"past end", ref, 2, 33, 8},
		{"unaligned", ref, 2, 4, 12},
		{"width 0", ref, 0, 1, 8},
		{"too wide", ref, 3, 1, 8},
	}
	for _, c := range cases {
		err := s.RunWave(Wave{DPUs: c.dpus, Tasklets: 1, Kernel: nop, Gather: c.ref, Rows: c.rows, RowBytes: c.rowBytes, Visit: visit})
		if _, ok := AsFaultReport(err); err == nil || ok {
			t.Errorf("%s: got %v, want a validation error", c.name, err)
		}
	}
	if visited || s.TransferStats() != (XferStats{}) || s.DPUTime() != 0 {
		t.Errorf("malformed in-place gathers visited %t, charged %+v, DPU time %v", visited, s.TransferStats(), s.DPUTime())
	}
}

// TestMalformedLaunchRunsNothing: a launch every DPU would reject — a
// nil kernel, a tasklet count outside 1..MaxTasklets — is a validation
// error through RunWave and LaunchOn alike: not a *FaultReport, nothing
// charged, and no scatter byte written to MRAM.
func TestMalformedLaunchRunsNothing(t *testing.T) {
	s, ref := waveSystem(t, 4)
	nop := func(tk *dpu.Tasklet) error { return nil }
	in := make([][]byte, 4)
	for i := range in {
		in[i] = bytes.Repeat([]byte{0xA5}, 64)
	}
	for _, c := range []struct {
		tasklets int
		kernel   dpu.KernelFunc
	}{{1, nil}, {0, nop}, {dpu.MaxTasklets + 1, nop}} {
		werr := s.RunWave(Wave{DPUs: 4, Tasklets: c.tasklets, Kernel: c.kernel, Scatter: ref, In: in})
		_, lerr := s.LaunchOn(4, c.tasklets, c.kernel)
		for op, err := range map[string]error{"RunWave": werr, "LaunchOn": lerr} {
			if _, ok := AsFaultReport(err); err == nil || ok {
				t.Errorf("%s(%d tasklets, nil kernel %t): got %v, want a validation error",
					op, c.tasklets, c.kernel == nil, err)
			}
		}
	}
	if s.TransferStats() != (XferStats{}) || s.DPUTime() != 0 {
		t.Errorf("malformed launches charged %+v, DPU time %v", s.TransferStats(), s.DPUTime())
	}
	got := make([]byte, 64)
	for d := 0; d < 4; d++ {
		if _, err := s.DPU(d).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: ref.off, Buf: got}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("DPU %d: a rejected wave scattered into MRAM", d)
		}
	}
}
