package dpu

import (
	"strings"
	"testing"

	"pimdnn/internal/softfloat"
)

func newTestDPU(t *testing.T, opt OptLevel) *DPU {
	t.Helper()
	d, err := New(DefaultConfig(opt))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// profileOp runs a Fig 3.1-style measurement: perfcounter around a single
// operation plus the harness overhead, one tasklet, and returns cycles.
func profileOp(t *testing.T, opt OptLevel, body func(tk *Tasklet)) uint64 {
	t.Helper()
	d := newTestDPU(t, opt)
	var cycles uint64
	_, err := d.Launch(1, func(tk *Tasklet) error {
		tk.PerfcounterConfig()
		tk.Charge(OpNop, profilingOverheadSlots) // harness instructions
		body(tk)
		cycles = tk.PerfcounterGet()
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return cycles
}

// TestTable31OpCycles reproduces Table 3.1: cycles for single operations
// at O0 with one tasklet. The thesis notes the measured values include
// profiling overhead, so we assert to within 2% of the published numbers.
func TestTable31OpCycles(t *testing.T) {
	tests := []struct {
		name  string
		body  func(tk *Tasklet)
		paper uint64
	}{
		{"add 8/16/32-bit", func(tk *Tasklet) { tk.Add32(3, 4) }, 272},
		{"sub 8/16/32-bit", func(tk *Tasklet) { tk.Sub32(3, 4) }, 272},
		{"mul 8-bit", func(tk *Tasklet) { tk.Mul8(3, 4) }, 272},
		{"mul 16-bit", func(tk *Tasklet) { tk.Mul16(300, 40) }, 608},
		{"mul 32-bit", func(tk *Tasklet) { tk.Mul32(300000, 40) }, 800},
		{"div fixed", func(tk *Tasklet) { tk.Div32(300, 4) }, 368},
		{"float add", func(tk *Tasklet) { tk.FAdd(0x3F800000, 0x40000000) }, 896},
		{"float sub", func(tk *Tasklet) { tk.FSub(0x3F800000, 0x40000000) }, 928},
		{"float mul", func(tk *Tasklet) { tk.FMul(0x3F800000, 0x40000000) }, 2528},
		{"float div", func(tk *Tasklet) { tk.FDiv(0x3F800000, 0x40000000) }, 12064},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := profileOp(t, O0, tt.body)
			lo := tt.paper * 98 / 100
			hi := tt.paper * 102 / 100
			if got < lo || got > hi {
				t.Errorf("profiled %s = %d cycles, paper %d (tolerance 2%%)", tt.name, got, tt.paper)
			}
		})
	}
}

// TestTable31Ratios checks the comparative claims the thesis derives from
// Table 3.1 (§3.3.1).
func TestTable31Ratios(t *testing.T) {
	add := profileOp(t, O0, func(tk *Tasklet) { tk.Add32(1, 2) })
	mul32 := profileOp(t, O0, func(tk *Tasklet) { tk.Mul32(1, 2) })
	fadd := profileOp(t, O0, func(tk *Tasklet) { tk.FAdd(1, 2) })
	fmul := profileOp(t, O0, func(tk *Tasklet) { tk.FMul(1, 2) })

	checkRatio := func(name string, num, den uint64, want float64) {
		got := float64(num) / float64(den)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s ratio = %.2f, paper ~%.1f", name, got, want)
		}
	}
	checkRatio("mul32/add32", mul32, add, 2.9)
	checkRatio("fadd/add32", fadd, add, 3.3)
	checkRatio("fmul/mul32", fmul, mul32, 3.2)
	// The thesis prose says ~2.3x here, but its own Table 3.1 gives
	// 2528/896 = 2.82; we calibrate to the table.
	checkRatio("fmul/fadd", fmul, fadd, 2.82)
}

// TestEq34MRAMAccess reproduces Eq 3.4: a 2048-byte MRAM->WRAM transfer
// costs exactly 25 + 2048/2 = 1049 cycles.
func TestEq34MRAMAccess(t *testing.T) {
	d := newTestDPU(t, O0)
	var dma uint64
	_, err := d.Launch(1, func(tk *Tasklet) error {
		tk.MRAMToWRAM(0, 0, 2048)
		dma = tk.DMACycles()
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if dma != 1049 {
		t.Errorf("2048-byte DMA = %d cycles, want 1049 (Eq 3.4)", dma)
	}
}

func TestDMACycleFormula(t *testing.T) {
	tests := []struct {
		bytes int
		want  uint64
	}{
		{8, 29},
		{16, 33},
		{64, 57},
		{1024, 537},
		{2048, 1049},
	}
	for _, tt := range tests {
		if got := dmaCycles(tt.bytes); got != tt.want {
			t.Errorf("dmaCycles(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

// TestTaskletSpeedup verifies the pipeline model: for balanced work the
// speedup over one tasklet is min(T, 11) — Fig 4.7(a)'s saturation.
func TestTaskletSpeedup(t *testing.T) {
	const slotsPerTasklet = 1000
	run := func(n int) uint64 {
		d := newTestDPU(t, O3)
		st, err := d.Launch(n, func(tk *Tasklet) error {
			tk.Charge(OpAddInt, slotsPerTasklet)
			return nil
		})
		if err != nil {
			t.Fatalf("Launch(%d): %v", n, err)
		}
		return st.Cycles
	}
	base := run(1)
	if base != slotsPerTasklet*PipelineDepth {
		t.Fatalf("1 tasklet = %d cycles, want %d", base, slotsPerTasklet*PipelineDepth)
	}
	for _, n := range []int{2, 4, 8, 11, 16, 24} {
		got := run(n)
		// n tasklets perform n x the work of the single-tasklet run.
		speedup := float64(base) * float64(n) / float64(got)
		want := float64(n)
		if n > PipelineDepth {
			want = PipelineDepth
		}
		if speedup < want*0.99 || speedup > want*1.01 {
			t.Errorf("%d tasklets: speedup %.2f, want %.2f", n, speedup, want)
		}
	}
}

// TestDMASerialization: the single DMA engine bounds completion time when
// transfers dominate.
func TestDMASerialization(t *testing.T) {
	d := newTestDPU(t, O3)
	const n = 8
	st, err := d.Launch(n, func(tk *Tasklet) error {
		for i := 0; i < 4; i++ {
			tk.MRAMToWRAM(0, int64(tk.ID())*4096, 2048)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	wantDMA := uint64(n * 4 * 1049)
	if st.DMACycles != wantDMA {
		t.Errorf("DMACycles = %d, want %d", st.DMACycles, wantDMA)
	}
	if st.Cycles < wantDMA {
		t.Errorf("Cycles = %d < serialized DMA %d", st.Cycles, wantDMA)
	}
}

func TestMul16OptimizationCollapse(t *testing.T) {
	// At O0 the 16-bit multiply calls __mulsi3; at O3 it inlines (§3.3).
	d0 := newTestDPU(t, O0)
	if _, err := d0.Launch(1, func(tk *Tasklet) error { tk.Mul16(100, 100); return nil }); err != nil {
		t.Fatal(err)
	}
	if occ := d0.Profile().Occ(softfloat.SubMulSI3); occ != 1 {
		t.Errorf("O0 mul16 __mulsi3 occ = %d, want 1", occ)
	}

	d3 := newTestDPU(t, O3)
	if _, err := d3.Launch(1, func(tk *Tasklet) error { tk.Mul16(100, 100); return nil }); err != nil {
		t.Fatal(err)
	}
	if occ := d3.Profile().Occ(softfloat.SubMulSI3); occ != 0 {
		t.Errorf("O3 mul16 __mulsi3 occ = %d, want 0", occ)
	}

	// 32-bit multiply keeps the subroutine even at O3.
	if _, err := d3.Launch(1, func(tk *Tasklet) error { tk.Mul32(100, 100); return nil }); err != nil {
		t.Fatal(err)
	}
	if occ := d3.Profile().Occ(softfloat.SubMulSI3); occ != 1 {
		t.Errorf("O3 mul32 __mulsi3 occ = %d, want 1", occ)
	}
}

func TestFloatSubroutineProfile(t *testing.T) {
	d := newTestDPU(t, O0)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		a := tk.FFromInt(3)
		b := tk.FFromInt(4)
		s := tk.FAdd(a, b)
		p := tk.FMul(s, b)
		q := tk.FDiv(p, a)
		if tk.FLt(q, a) {
			return nil
		}
		_ = tk.FToInt(q)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Profile()
	wantOcc := map[string]uint64{
		softfloat.SubFloatSiSF: 2,
		softfloat.SubAddSF3:    1,
		softfloat.SubMulSF3:    1,
		softfloat.SubDivSF3:    1,
		softfloat.SubLtSF2:     1,
		softfloat.SubFixSFSi:   1,
	}
	for name, want := range wantOcc {
		if got := p.Occ(name); got != want {
			t.Errorf("occ[%s] = %d, want %d", name, got, want)
		}
	}
	if fs := p.FloatSubroutines(); len(fs) != 6 {
		t.Errorf("FloatSubroutines = %v, want 6 entries", fs)
	}
}

func TestFloatOpsComputeCorrectly(t *testing.T) {
	d := newTestDPU(t, O0)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		three := softfloat.FromFloat32(3)
		four := softfloat.FromFloat32(4)
		if got := softfloat.ToFloat32(tk.FAdd(three, four)); got != 7 {
			t.Errorf("FAdd = %v", got)
		}
		if got := softfloat.ToFloat32(tk.FMul(three, four)); got != 12 {
			t.Errorf("FMul = %v", got)
		}
		if got := softfloat.ToFloat32(tk.FDiv(three, four)); got != 0.75 {
			t.Errorf("FDiv = %v", got)
		}
		if got := tk.FToInt(softfloat.FromFloat32(-2.9)); got != -2 {
			t.Errorf("FToInt = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWRAMLoadStore(t *testing.T) {
	d := newTestDPU(t, O0)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		tk.Store8(0, -5)
		tk.Store16(2, -1234)
		tk.Store32(4, 0xDEADBEEF)
		tk.Store32(8, 0xFFFFFF9D) // int32(-99)
		if tk.Load8(0) != -5 || tk.Load16(2) != -1234 ||
			tk.Load32(4) != 0xDEADBEEF || int32(tk.Load32(8)) != -99 {
			t.Error("WRAM round trip mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWRAMFaults(t *testing.T) {
	tests := []struct {
		name   string
		kernel KernelFunc
	}{
		{"oob load", func(tk *Tasklet) error { tk.Load8(int64(DefaultWRAMSize)); return nil }},
		{"oob store", func(tk *Tasklet) error { tk.Store32(int64(DefaultWRAMSize)-2, 0); return nil }},
		{"misaligned 32", func(tk *Tasklet) error { tk.Load32(2); return nil }},
		{"misaligned 16", func(tk *Tasklet) error { tk.Load16(1); return nil }},
		{"negative", func(tk *Tasklet) error { tk.Load8(-1); return nil }},
		{"div zero", func(tk *Tasklet) error { tk.Div32(1, 0); return nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := newTestDPU(t, O0)
			if _, err := d.Launch(1, tt.kernel); err == nil {
				t.Errorf("%s: expected fault error", tt.name)
			}
		})
	}
}

func TestDMAFaults(t *testing.T) {
	tests := []struct {
		name   string
		kernel KernelFunc
	}{
		{"size not multiple of 8", func(tk *Tasklet) error { tk.MRAMToWRAM(0, 0, 12); return nil }},
		{"size over 2048", func(tk *Tasklet) error { tk.MRAMToWRAM(0, 0, 2056); return nil }},
		{"misaligned mram", func(tk *Tasklet) error { tk.MRAMToWRAM(0, 4, 8); return nil }},
		{"wram oob", func(tk *Tasklet) error { tk.MRAMToWRAM(int64(DefaultWRAMSize)-4, 0, 8); return nil }},
		{"zero size", func(tk *Tasklet) error { tk.WRAMToMRAM(0, 0, 0); return nil }},
		{"read misaligned", func(tk *Tasklet) error { tk.ReadMRAM(4, make([]byte, 8)); return nil }},
		{"read past MRAM", func(tk *Tasklet) error { tk.ReadMRAM(DefaultMRAMSize-8, make([]byte, 16)); return nil }},
		{"write size not multiple of 8", func(tk *Tasklet) error { tk.WriteMRAM(0, make([]byte, 12)); return nil }},
		{"row walk misaligned stride", func(tk *Tasklet) error { tk.MRAMRowRuns(0, 12, 8, 2, nil); return nil }},
		{"row walk past MRAM", func(tk *Tasklet) error { tk.MRAMRowRuns(DefaultMRAMSize-8, 8, 8, 2, nil); return nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := newTestDPU(t, O0)
			_, err := d.Launch(2, func(tk *Tasklet) error {
				if tk.ID() == 0 {
					return nil
				}
				return tt.kernel(tk)
			})
			if err == nil || !strings.Contains(err.Error(), "tasklet 1: memory fault") {
				t.Errorf("%s: launch returned %v, want tasklet 1's memory fault", tt.name, err)
			}
		})
	}
}

func TestDMADataIntegrity(t *testing.T) {
	d := newTestDPU(t, O0)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	back := make([]byte, 256)
	kernel := func(tk *Tasklet) error {
		tk.MRAMToWRAM(0, 1024, 256)
		for i := 0; i < 256; i++ {
			if byte(tk.Load8(int64(i))) != byte(i) {
				t.Fatalf("WRAM[%d] = %d after DMA, want %d", i, tk.Load8(int64(i)), i)
			}
		}
		// Modify and push back to a different MRAM region.
		tk.Store8(0, 77)
		tk.WRAMToMRAM(4096, 0, 256)
		return nil
	}
	if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: 1024, Buf: src}, Tasklets: 1, Kernel: kernel,
		Stats: new(Stats), Gather: Xfer{Kind: SymbolMRAM, Off: 4096, Buf: back}}); err != nil {
		t.Fatal(err)
	}
	if back[0] != 77 || back[1] != 1 || back[255] != 255 {
		t.Errorf("MRAM writeback corrupted: % x", back[:4])
	}
}

func TestMRAMZeroFill(t *testing.T) {
	d := newTestDPU(t, O0)
	// Reading never-written MRAM returns zeros (lazy paging).
	data := make([]byte, 64)
	if _, err := d.Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: 32 << 20, Buf: data}}); err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("untouched MRAM[%d] = %d, want 0", i, b)
		}
	}
}

func TestMRAMPageStraddle(t *testing.T) {
	d := newTestDPU(t, O0)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 7)
	}
	off := int64(MRAMPageSize - 2048) // straddles a page boundary
	got := make([]byte, 4096)
	if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: off, Buf: src}, Gather: Xfer{Kind: SymbolMRAM, Off: off, Buf: got}}); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("page-straddling MRAM[%d] = %d, want %d", i, got[i], src[i])
		}
	}
}

func TestHostTransferAlignment(t *testing.T) {
	d := newTestDPU(t, O0)
	if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: 4, Buf: make([]byte, 8)}}); err == nil {
		t.Error("unaligned host MRAM write accepted")
	}
	if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: 0, Buf: make([]byte, 12)}}); err == nil {
		t.Error("unpadded host MRAM write accepted (must be divisible by 8)")
	}
	if _, err := d.Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: 0, Buf: make([]byte, 12)}}); err == nil {
		t.Error("unpadded host MRAM read accepted")
	}
}

func TestAllocators(t *testing.T) {
	d := newTestDPU(t, O0)
	s1, err := d.Alloc(Symbol{Name: "input", Kind: SymbolMRAM, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Size != 104 {
		t.Errorf("MRAM alloc size = %d, want 104 (rounded to 8)", s1.Size)
	}
	s2, err := d.Alloc(Symbol{Name: "output", Kind: SymbolMRAM, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Offset != 104 {
		t.Errorf("second alloc offset = %d, want 104", s2.Offset)
	}
	if _, err := d.Alloc(Symbol{Name: "input", Kind: SymbolMRAM, Size: 8}); err == nil {
		t.Error("duplicate symbol accepted")
	}
	w, err := d.Alloc(Symbol{Name: "lut", Kind: SymbolWRAM, Size: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != SymbolWRAM || w.Size != 1000 {
		t.Errorf("WRAM symbol = %+v", w)
	}
	if got, ok := d.Symbol("lut"); !ok || got != w {
		t.Errorf("Symbol lookup = %+v, %v", got, ok)
	}
	if free := d.WRAMFree(); free != int64(DefaultWRAMSize)-1000 {
		t.Errorf("WRAMFree = %d", free)
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := DefaultConfig(O0)
	cfg.MRAMSize = 1 << 10
	d := MustNew(cfg)
	if _, err := d.Alloc(Symbol{Name: "big", Kind: SymbolMRAM, Size: 2 << 10}); err == nil {
		t.Error("MRAM over-allocation accepted")
	}
	if _, err := d.Alloc(Symbol{Name: "huge", Kind: SymbolWRAM, Size: int64(cfg.WRAMSize) + 8}); err == nil {
		t.Error("WRAM over-allocation accepted")
	}
	if _, err := d.Alloc(Symbol{Name: "bad", Kind: SymbolMRAM, Size: 0}); err == nil {
		t.Error("zero-size alloc accepted")
	}
}

// TestStackCheck reproduces the §4.3.4 constraint: a large WRAM data
// segment leaves too little stack for many tasklets.
func TestStackCheck(t *testing.T) {
	d := newTestDPU(t, O0)
	// Consume almost all WRAM.
	if _, err := d.Alloc(Symbol{Name: "buffer", Kind: SymbolWRAM, Size: int64(DefaultWRAMSize) - 1024}); err != nil {
		t.Fatal(err)
	}
	// 1024 free / 5 tasklets = 204 bytes < MinStackBytes.
	if _, err := d.Launch(5, func(tk *Tasklet) error { return nil }); err == nil {
		t.Error("launch with starved stacks accepted")
	}
	// 4 tasklets get exactly MinStackBytes each: fine.
	if _, err := d.Launch(4, func(tk *Tasklet) error { return nil }); err != nil {
		t.Errorf("launch with adequate stacks rejected: %v", err)
	}
}

func TestStackPerTaskletMatchesThesis(t *testing.T) {
	d := newTestDPU(t, O0)
	// Empty data segment, 11 tasklets: 64KB/11 = 5957 bytes ≈ 5.8 KB.
	got := d.StackPerTasklet(11)
	if got != 5957 {
		t.Errorf("StackPerTasklet(11) = %d, want 5957 (~5.8KB, §4.3.4)", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newTestDPU(t, O0)
	if _, err := d.Launch(0, func(tk *Tasklet) error { return nil }); err == nil {
		t.Error("0 tasklets accepted")
	}
	if _, err := d.Launch(MaxTasklets+1, func(tk *Tasklet) error { return nil }); err == nil {
		t.Error("25 tasklets accepted")
	}
	if _, err := d.Launch(1, nil); err == nil {
		t.Error("nil kernel accepted")
	}
}

func TestTotalCyclesAccumulate(t *testing.T) {
	d := newTestDPU(t, O0)
	k := func(tk *Tasklet) error { tk.Charge(OpAddInt, 10); return nil }
	s1, _ := d.Launch(1, k)
	s2, _ := d.Launch(1, k)
	if d.TotalCycles() != s1.Cycles+s2.Cycles {
		t.Errorf("TotalCycles = %d, want %d", d.TotalCycles(), s1.Cycles+s2.Cycles)
	}
	d.ResetClock()
	if d.TotalCycles() != 0 {
		t.Error("ResetClock did not zero the counter")
	}
}

func TestStatsTime(t *testing.T) {
	d := newTestDPU(t, O3)
	st, err := d.Launch(1, func(tk *Tasklet) error {
		tk.Charge(OpAddInt, 35000) // 35000 slots * 11 = 385000 cycles
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 385000 cycles / 350 MHz = 1.1 ms.
	if st.Seconds < 0.0010 || st.Seconds > 0.0012 {
		t.Errorf("Seconds = %v, want ~0.0011", st.Seconds)
	}
	if st.Time.Microseconds() != 1100 {
		t.Errorf("Time = %v, want 1.1ms", st.Time)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{MRAMSize: 1, WRAMSize: 1, IRAMSize: 1, FrequencyHz: 0, Opt: O0},
		{MRAMSize: 1, WRAMSize: 1, IRAMSize: 1, FrequencyHz: 1, Opt: OptLevel(9)},
		{MRAMSize: -1, WRAMSize: 1, IRAMSize: 1, FrequencyHz: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestOptLevelString(t *testing.T) {
	if O0.String() != "O0" || O3.String() != "O3" || OptLevel(9).String() != "O?" {
		t.Error("OptLevel.String wrong")
	}
}

func TestPopcount(t *testing.T) {
	d := newTestDPU(t, O0)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		tests := []struct {
			v    uint32
			want int32
		}{
			{0, 0}, {1, 1}, {0xFFFFFFFF, 32}, {0xAAAAAAAA, 16}, {0x80000001, 2},
		}
		for _, tt := range tests {
			if got := tk.Popcount32(tt.v); got != tt.want {
				t.Errorf("Popcount32(%#x) = %d, want %d", tt.v, got, tt.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntegerOps(t *testing.T) {
	d := newTestDPU(t, O3)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		if tk.Add32(2, 3) != 5 || tk.Sub32(2, 3) != -1 {
			t.Error("add/sub wrong")
		}
		if tk.Mul8(-5, 7) != -35 || tk.Mul16(-300, 2) != -600 || tk.Mul32(1<<16, 1<<16) != 0 {
			t.Error("mul wrong")
		}
		if tk.Div32(-7, 2) != -3 || tk.Mod32(-7, 2) != -1 {
			t.Error("div/mod wrong")
		}
		if tk.Shl32(1, 4) != 16 || tk.Shr32(-16, 2) != -4 {
			t.Error("shift wrong")
		}
		if tk.And32(0xF0, 0x3C) != 0x30 || tk.Or32(0xF0, 0x0F) != 0xFF || tk.Xor32(0xFF, 0x0F) != 0xF0 {
			t.Error("logic wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfileReportFormat(t *testing.T) {
	d := newTestDPU(t, O0)
	_, err := d.Launch(1, func(tk *Tasklet) error {
		tk.FAdd(1, 2)
		tk.FAdd(1, 2)
		tk.FDiv(1, 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Profile().Report()
	if !strings.Contains(rep, softfloat.SubAddSF3) || !strings.Contains(rep, softfloat.SubDivSF3) {
		t.Errorf("report missing subroutines:\n%s", rep)
	}
	// __divsf3 costs more cycles, so it must come first.
	if strings.Index(rep, softfloat.SubDivSF3) > strings.Index(rep, softfloat.SubAddSF3) {
		t.Errorf("report not sorted by cycles:\n%s", rep)
	}
}
