package gemm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/tensor"
)

// TestPropertyDPUEqualsReference: for random shapes and operands, every
// kernel variant agrees with the host Algorithm 2 bit for bit.
func TestPropertyDPUEqualsReference(t *testing.T) {
	type shapeSeed struct {
		M, N, K uint8
		Seed    int64
	}
	run := func(naive bool) func(shapeSeed) bool {
		return func(ss shapeSeed) bool {
			m := int(ss.M%4) + 1
			n := int(ss.N%96) + 1
			k := int(ss.K%24) + 1
			rng := rand.New(rand.NewSource(ss.Seed))
			a := randMat(rng, m*k, 3000)
			b := randMat(rng, k*n, 3000)
			want, err := Reference(m, n, k, 1, a, b)
			if err != nil {
				return false
			}
			sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
			if err != nil {
				return false
			}
			r, err := NewRunner(sys, RunnerConfig{
				MaxK: 24, MaxN: 96, Tasklets: 1 + int(ss.Seed%8&7), TileCols: 16, Naive: naive,
			})
			if err != nil {
				return false
			}
			got, _, err := r.Multiply(m, n, k, 1, a, b)
			return err == nil && slices.Equal(got, want)
		}
	}
	if err := quick.Check(run(false), &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("tiled: %v", err)
	}
	if err := quick.Check(run(true), &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("naive: %v", err)
	}
}

// TestPropertyFunctionIndependentOfPartition: the kernel family and the
// tasklet count pick a cost function, never the product. Raw launches of
// the tiled, naive and batch kernels at every swept tasklet count must
// leave the same C bytes in MRAM — Reference's, at the padded row stride
// with the padding zeroed — on shapes at each edge of the functional
// pass: n below, at and above the tile width and off the 4-column
// padding, odd k (A-row padding), an all-zero A row, B rows across a
// 64 KB MRAM page boundary, B rows on a page nothing ever wrote, and A
// at a weight-cache arena address.
func TestPropertyFunctionIndependentOfPartition(t *testing.T) {
	const (
		m, maxN, maxK, tile = 3, 130, 512, 64
		page                = 64 << 10 // internal/dpu's MRAM page size
	)
	cases := []struct {
		name  string
		n, k  int
		zeroA bool // A row 1 is all zero
		bRows int  // B rows written to MRAM, the rest zero and untouched (0: all k)
		arena bool // A sits in the weight-cache arena
	}{
		{name: "one column", n: 1, k: 9},
		{name: "three columns", n: 3, k: 17},
		{name: "four columns", n: 4, k: 8},
		{name: "below a tile", n: 40, k: 33},
		{name: "one tile", n: 64, k: 19},
		{name: "a tile and a column", n: 65, k: 7},
		{name: "ragged last tile", n: 130, k: 21},
		{name: "zero A row", n: 40, k: 33, zeroA: true},
		{name: "B across a page boundary", n: 130, k: 251},
		{name: "B tail on an untouched page", n: 130, k: 251, bRows: 200},
		{name: "resident A", n: 65, k: 7, arena: true},
	}
	for _, tc := range cases {
		n, k := tc.n, tc.k
		rng := rand.New(rand.NewSource(int64(n*1000 + k)))
		a, b := randMat(rng, m*k, 60), randMat(rng, k*n, 60)
		if tc.zeroA {
			clear(a[k : 2*k])
		}
		bRows := k
		if tc.bRows > 0 {
			bRows = tc.bRows
			clear(b[bRows*n:])
		}
		ref, err := Reference(m, n, k, 3, a, b) // launchRaw's alpha
		if err != nil {
			t.Fatal(err)
		}
		rowBytes, aBytes := pad4(n)*2, (k*2+7)&^7
		want := make([]byte, m*rowBytes)
		bBuf := make([]byte, bRows*rowBytes)
		aBuf := make([]byte, m*aBytes)
		for i := 0; i < m; i++ {
			tensor.PackLE(want[i*rowBytes:], ref[i*n:(i+1)*n])
			tensor.PackLE(aBuf[i*aBytes:], a[i*k:(i+1)*k])
		}
		for kk := 0; kk < bRows; kk++ {
			tensor.PackLE(bBuf[kk*rowBytes:], b[kk*n:(kk+1)*n])
		}
		for _, kind := range []string{"tiled", "naive", "batch"} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				// A fresh DPU per case, so a page the case does not write
				// was never written.
				sys := newSystem(t, 1, dpu.O3)
				r := mustRunner(t, sys, RunnerConfig{MaxK: maxK, MaxN: maxN, Tasklets: dpu.MaxTasklets,
					TileCols: tile, Naive: kind == "naive"})
				d := sys.DPU(0)
				kernel, aAt, cAt, rows, launches := r.Kernel(), r.aOff, r.cOff, 0, m
				if kind == "batch" {
					if err := r.EnableBatch(m); err != nil {
						t.Fatal(err)
					}
					kernel, aAt, cAt, rows, launches = r.blockKernel(true), r.aFullOff, r.cFullOff, m, 1
				}
				if tc.arena {
					if _, err := exec.NewWeightCache(sys, 4096); err != nil {
						t.Fatal(err)
					}
					sym, _ := d.Symbol(exec.ArenaSymbol)
					aAt = sym.Offset
				}
				if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: r.bOff, Buf: bBuf}}); err != nil {
					t.Fatal(err)
				}
				// Only the two k=251 cases reach past B's first page.
				if first, last := r.bOff/page, (r.bOff+int64(k*rowBytes)-1)/page; (k == 251) != (first != last) {
					t.Fatalf("B spans pages %d..%d", first, last)
				}
				// A row launch computes one C row from one A row; the batch
				// launch computes all m.
				per := len(want) / launches
				poison := bytes.Repeat([]byte{0xa5}, per)
				for _, T := range []int{1, 2, 8, 11, 16, 24} {
					var got []byte
					for l := 0; l < launches; l++ {
						if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: aAt, Buf: aBuf[l*len(aBuf)/launches : (l+1)*len(aBuf)/launches]}}); err != nil {
							t.Fatal(err)
						}
						if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: cAt, Buf: poison}}); err != nil {
							t.Fatal(err)
						}
						if _, err := launchRaw(r, kernel, T, n, k, rows, aAt); err != nil {
							t.Fatalf("T=%d: %v", T, err)
						}
						c := make([]byte, per)
						if _, err := d.Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: cAt, Buf: c}}); err != nil {
							t.Fatal(err)
						}
						got = append(got, c...)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("T=%d: C bytes in MRAM differ from Reference:\ngot  %s\nwant %s", T, head(got), head(want))
					}
				}
			})
		}
	}
}

// head formats the first bytes of a buffer for a failure message.
func head(b []byte) string { return fmt.Sprintf("% x…", b[:min(len(b), 32)]) }
