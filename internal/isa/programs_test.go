package isa

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
)

// writeWords stores int32 words into WRAM via the host interface.
func writeWords(t *testing.T, d *dpu.DPU, off int, vals []int32) {
	t.Helper()
	buf := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: int64(off), Buf: buf}}); err != nil {
		t.Fatal(err)
	}
}

func readWords(t *testing.T, d *dpu.DPU, off, n int) []int32 {
	t.Helper()
	raw := make([]byte, n*4)
	if _, err := d.Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: int64(off), Buf: raw}}); err != nil {
		t.Fatal(err)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

func TestVecAddProgram(t *testing.T) {
	const n, tasklets = 100, 8
	const aOff, bOff, dstOff = 0, 1024, 2048
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	rng := rand.New(rand.NewSource(1))
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = rng.Int31n(1000) - 500
		b[i] = rng.Int31n(1000) - 500
	}
	writeWords(t, d, aOff, a)
	writeWords(t, d, bOff, b)

	prog, err := VecAddProgram(aOff, bOff, dstOff, n, tasklets)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(tasklets, Kernel(nil, nil)); err != nil {
		t.Fatal(err)
	}
	got := readWords(t, d, dstOff, n)
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, got[i], a[i]+b[i])
		}
	}
}

func TestVecAddTaskletScaling(t *testing.T) {
	// The assembled program's simulated time must scale with tasklets
	// like any balanced kernel: more tasklets, fewer cycles.
	const n = 512
	run := func(tasklets int) uint64 {
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
		writeWords(t, d, 0, make([]int32, n))
		writeWords(t, d, 4096, make([]int32, n))
		prog, err := VecAddProgram(0, 4096, 8192, n, tasklets)
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(d, prog); err != nil {
			t.Fatal(err)
		}
		st, err := d.Launch(tasklets, Kernel(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	c1, c8 := run(1), run(8)
	if speedup := float64(c1) / float64(c8); speedup < 6 {
		t.Errorf("8-tasklet vec add speedup = %.1f, want near 8", speedup)
	}
}

func TestDotProductProgram(t *testing.T) {
	const n = 50
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	rng := rand.New(rand.NewSource(2))
	a := make([]int32, n)
	b := make([]int32, n)
	var want int32
	for i := range a {
		a[i] = rng.Int31n(200) - 100
		b[i] = rng.Int31n(200) - 100
		want += a[i] * b[i]
	}
	writeWords(t, d, 0, a)
	writeWords(t, d, 512, b)
	prog, err := DotProductProgram(0, 512, 1024, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(1, Kernel(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if got := readWords(t, d, 1024, 1)[0]; got != want {
		t.Errorf("dot = %d, want %d", got, want)
	}
	// The multiply must have gone through the __mulsi3 subroutine.
	if occ := d.Profile().Occ("__mulsi3"); occ != n {
		t.Errorf("__mulsi3 occ = %d, want %d", occ, n)
	}
}

func TestMemcpyProgram(t *testing.T) {
	const bytes = 5000 // 2 full chunks + 904-byte tail
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	src := make([]byte, bytes)
	for i := range src {
		src[i] = byte(i * 13)
	}
	prog, err := MemcpyProgram(0, 1<<20, 0, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	var st dpu.Stats
	got := make([]byte, bytes)
	if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: 0, Buf: src}, Tasklets: 1, Kernel: Kernel(nil, nil),
		Stats: &st, Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: 1 << 20, Buf: got}}); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], src[i])
		}
	}
	// DMA accounting: 2 chunk pairs + 1 tail pair.
	wantDMA := 2*2*dpu.DMACost(2048) + 2*dpu.DMACost(904)
	if st.DMACycles != wantDMA {
		t.Errorf("DMA cycles = %d, want %d", st.DMACycles, wantDMA)
	}
}

func TestMemcpyProgramValidation(t *testing.T) {
	if _, err := MemcpyProgram(0, 0, 0, 12); err == nil {
		t.Error("unpadded byte count accepted")
	}
	if _, err := MemcpyProgram(0, 0, 0, 0); err == nil {
		t.Error("zero byte count accepted")
	}
}

func TestPopcountProgram(t *testing.T) {
	const n = 32
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	rng := rand.New(rand.NewSource(3))
	vals := make([]int32, n)
	want := int32(0)
	for i := range vals {
		vals[i] = int32(rng.Uint32())
		for v := uint32(vals[i]); v != 0; v &= v - 1 {
			want++
		}
	}
	writeWords(t, d, 0, vals)
	prog, err := PopcountProgram(0, 512, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(1, Kernel(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if got := readWords(t, d, 512, 1)[0]; got != want {
		t.Errorf("popcount = %d, want %d", got, want)
	}
}

func TestReduceMaxProgram(t *testing.T) {
	const n, tasklets = 200, 4
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	rng := rand.New(rand.NewSource(4))
	vals := make([]int32, n)
	want := int32(-1 << 31)
	for i := range vals {
		vals[i] = rng.Int31() - (1 << 30)
		if vals[i] > want {
			want = vals[i]
		}
	}
	writeWords(t, d, 0, vals)
	prog, err := ReduceMaxProgram(0, 2048, n, tasklets)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(tasklets, Kernel(nil, nil)); err != nil {
		t.Fatal(err)
	}
	partials := readWords(t, d, 2048, tasklets)
	got := partials[0]
	for _, p := range partials[1:] {
		if p > got {
			got = p
		}
	}
	if got != want {
		t.Errorf("max = %d, want %d (partials %v)", got, want, partials)
	}
}

func TestProgramBuilderValidation(t *testing.T) {
	if _, err := VecAddProgram(0, 0, 0, 0, 1); err == nil {
		t.Error("VecAdd n=0 accepted")
	}
	if _, err := DotProductProgram(0, 0, 0, 0); err == nil {
		t.Error("Dot n=0 accepted")
	}
	if _, err := PopcountProgram(0, 0, 0); err == nil {
		t.Error("Popcount n=0 accepted")
	}
	if _, err := ReduceMaxProgram(0, 0, 5, 0); err == nil {
		t.Error("ReduceMax tasklets=0 accepted")
	}
}
