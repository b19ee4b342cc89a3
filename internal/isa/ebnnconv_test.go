package isa

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/mnist"
)

// TestEBNNConvProgramMatchesHost runs the assembly implementation of the
// eBNN conv+pool against the functional host reference, bit for bit, on
// real synthetic digits.
func TestEBNNConvProgramMatchesHost(t *testing.T) {
	const (
		rowsOff = 0
		outOff  = 256
		filter  = uint16(0x1B5)
	)
	imgs := mnist.Generate(3, 71)
	m := &ebnn.Model{F: 1, Filters: []uint16{filter}}

	for _, tasklets := range []int{1, 4} {
		prog, err := EBNNConvProgram(rowsOff, outOff, filter, tasklets)
		if err != nil {
			t.Fatal(err)
		}
		for ii := range imgs {
			d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
			packed := imgs[ii].Pack()
			if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: rowsOff, Buf: packed[:mnist.Side*4]}}); err != nil {
				t.Fatal(err)
			}
			if err := Load(d, prog); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Launch(tasklets, Kernel(nil, nil)); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, ebnn.PoolCells)
			if _, err := d.Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: outOff, Buf: out}}); err != nil {
				t.Fatal(err)
			}
			bits := imgs[ii].Binarize()
			want := m.ConvPool(&bits)
			for cell := 0; cell < ebnn.PoolCells; cell++ {
				got := int(out[cell]) - 9 // remove the +9 bias
				if got != int(want[cell]) {
					t.Fatalf("tasklets=%d image %d cell %d: asm %d, host %d",
						tasklets, ii, cell, got, want[cell])
				}
			}
		}
	}
}

// TestEBNNConvProgramScales: the assembly kernel's cycle count drops with
// tasklet parallelism like the functional kernel's.
func TestEBNNConvProgramScales(t *testing.T) {
	img := mnist.Generate(1, 72)[0]
	packed := img.Pack()
	run := func(tasklets int) uint64 {
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
		if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: 0, Buf: packed[:mnist.Side*4]}}); err != nil {
			t.Fatal(err)
		}
		prog, err := EBNNConvProgram(0, 256, 0x0F3, tasklets)
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
	// 13 pooled rows over 8 tasklets: ceil(13/8)=2 rows for one tasklet
	// vs 13 serial — expect roughly 13/2 = 6.5x.
	speedup := float64(c1) / float64(c8)
	if speedup < 5 || speedup > 8 {
		t.Errorf("8-tasklet speedup = %.1f, want ~6.5 (13 rows / 2 per tasklet)", speedup)
	}
}

func TestEBNNConvProgramValidation(t *testing.T) {
	if _, err := EBNNConvProgram(0, 0, 1<<9, 1); err == nil {
		t.Error("10-bit filter accepted")
	}
	if _, err := EBNNConvProgram(0, 0, 1, 0); err == nil {
		t.Error("0 tasklets accepted")
	}
}
