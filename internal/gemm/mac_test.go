package gemm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pimdnn/internal/cpuid"
)

// needVectorMAC skips a test of the assembly where macBlock is the Go
// loops: against themselves they prove nothing.
func needVectorMAC(t testing.TB) {
	if !cpuid.AVX2 {
		t.Skip("macBlock is the portable Go loops on this host (not amd64, or no AVX2 / OS YMM state): nothing to compare")
	}
}

// macRef is the block MAC as gemm.Reference states it, one product per
// element in row order: the oracle both kernels are held to.
func macRef(acc []int32, a, block []byte, bstride int) {
	for r := 0; r < len(a)/2; r++ {
		ar := int32(int16(binary.LittleEndian.Uint16(a[2*r:])))
		for j := range acc {
			acc[j] += ar * int32(int16(binary.LittleEndian.Uint16(block[r*bstride+2*j:])))
		}
	}
}

// checkMACBlock runs one block MAC — n lanes, rows rows bstride bytes
// apart, block starting off bytes into a 64-byte line — through macBlock
// (the selected kernel), macBlockGo (the Go loops) and macRef from the
// same nonzero accumulators, and wants them equal lane for lane, the
// lanes past acc[:n] untouched, and every byte in and around block
// unchanged. Operands come from next, a quarter to three eighths of the
// A and B lanes pinned to the int16 extremes -32768 / 32767 / 0.
func checkMACBlock(t *testing.T, n, rows, bstride, off int, next func() uint32) {
	t.Helper()
	word := func() uint32 {
		switch v := next(); v >> 16 % 8 {
		case 0, 1:
			return 0x8000
		case 2:
			return 0x7FFF
		case 3:
			return 0
		default:
			return v
		}
	}
	rowBytes := pad4(n) * 2
	size := (rows-1)*bstride + rowBytes
	buf := bytes.Repeat([]byte{0xA5}, size+128)
	start := int(-uintptr(unsafe.Pointer(&buf[0]))&63) + off
	for r := 0; r < rows; r++ {
		row := buf[start+r*bstride:][:rowBytes]
		for i := 0; i < rowBytes; i += 2 {
			binary.LittleEndian.PutUint16(row[i:], uint16(word()))
		}
	}
	orig := bytes.Clone(buf)
	block := buf[start : start+size : start+size]

	a := make([]byte, rows*2)
	for i := 0; i < len(a); i += 2 {
		binary.LittleEndian.PutUint16(a[i:], uint16(word()))
	}
	const canary = 0x5A5A5A5A
	got := make([]int32, n+8)
	for j := range got {
		got[j] = canary
		if j < n {
			got[j] = int32(next())
		}
	}
	goLoops, ref := slices.Clone(got), slices.Clone(got)

	macBlock(got[:n:n], a, block, bstride)
	macBlockGo(goLoops[:n:n], a, block, bstride)
	macRef(ref[:n], a, block, bstride)
	for j := range ref {
		if got[j] != ref[j] || goLoops[j] != ref[j] {
			what := "lane"
			if j >= n {
				what = "canary lane"
			}
			t.Fatalf("n=%d rows=%d bstride=%d off=%d: %s %d = %#x, Go loops %#x, reference %#x", n, rows, bstride, off, what, j, got[j], goLoops[j], ref[j])
		}
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("n=%d rows=%d bstride=%d off=%d: block was written", n, rows, bstride, off)
	}
}

// VPMADDWD's one wrap: a pair of rows whose A and B words are all
// -32768 sums 2·2³⁰ = 2³¹, which is 0x80000000 mod 2³², on every strip
// width and the Go tail.
func TestMACBlockPairWrap(t *testing.T) {
	a := []byte{0x00, 0x80, 0x00, 0x80}
	block := bytes.Repeat([]byte{0x00, 0x80}, 64)
	for _, n := range []int{4, 8, 16, 32, 63} {
		for _, mac := range []func([]int32, []byte, []byte, int){macBlock, macBlockGo, macRef} {
			acc := make([]int32, n)
			mac(acc, a, block, 0)
			for j, v := range acc {
				if v != math.MinInt32 {
					t.Fatalf("n=%d: lane %d = %#x, want 0x80000000", n, j, v)
				}
			}
		}
	}
}

// The assembly and the Go loops equal macRef on every width from one lane
// to past four 32-lane strips (each strip with odd and even row counts),
// every row count a page run of wide rows has, the
// four strides MRAMRowRuns produces (0: the zero or staged row;
// rowBytes: packed; wider: a strided symbol; 2,048: the DMA maximum), and
// every 8-byte placement of block in a cache line.
func TestMACBlockMatchesGoLoops(t *testing.T) {
	needVectorMAC(t)
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 130; n++ {
		rowBytes := pad4(n) * 2
		for rows := 1; rows <= 40; rows++ {
			for _, bstride := range []int{0, rowBytes, rowBytes + 8, 2048} {
				for off := 0; off < 64; off += 8 {
					if raceDetectorEnabled && off != (n+rows)%8*8 {
						continue // one placement per shape: the detector makes the full table ~10x slower
					}
					checkMACBlock(t, n, rows, bstride, off, rng.Uint32)
				}
			}
		}
	}
}

// FuzzMACBlock is the same comparison with the shape and the operands
// taken from fuzzer input: lanes, rows, stride and off pick the geometry
// (always a legal one: the wrapper's extent proof is TestMACExtent's),
// data is read cyclically as the operand stream. The seed corpus is
// testdata/fuzz/FuzzMACBlock, hand-built files that reach each kernel
// path: every strip with an odd row count, the 16-lane strip alone, and
// rows whose A and B words are all -32768.
func FuzzMACBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, lanes, rows, stride uint16, off uint8, data []byte) {
		needVectorMAC(t)
		n, r := int(lanes)%1100+1, int(rows)%320+1
		bstride := 0
		if stride > 0 {
			bstride = pad4(n)*2 + int(stride-1)%260*8
		}
		pos := 0
		checkMACBlock(t, n, r, bstride, int(off%8)*8, func() uint32 {
			var v uint32
			for i := 0; i < 4 && len(data) > 0; i++ {
				v = v<<8 | uint32(data[pos%len(data)])
				pos++
			}
			return v
		})
	})
}
