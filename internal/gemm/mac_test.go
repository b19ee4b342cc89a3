package gemm

import (
	"bytes"
	"math"
	"math/rand"
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

// checkMACBlock runs one block MAC — n lanes, rows rows bstride bytes
// apart, block starting off bytes into a 64-byte line — through macBlock
// (the selected kernel) and macBlockGo (the Go loops) from the same
// nonzero accumulators, and wants them equal lane for lane, the lanes
// past acc[:n] untouched, and every byte in and around block unchanged.
// Operands come from next, an eighth to a quarter of them pinned to the
// extremes: apart MinInt32 / MaxInt32 / 0, B lanes -32768 / 32767.
func checkMACBlock(t *testing.T, n, rows, bstride, off int, next func() uint32) {
	t.Helper()
	rowBytes := pad4(n) * 2
	size := (rows-1)*bstride + rowBytes
	buf := bytes.Repeat([]byte{0xA5}, size+128)
	start := int(-uintptr(unsafe.Pointer(&buf[0]))&63) + off
	for r := 0; r < rows; r++ {
		row := buf[start+r*bstride:][:rowBytes]
		for i := 0; i < rowBytes; i += 2 {
			v := next()
			switch v >> 16 % 8 {
			case 0, 1:
				v = 0x8000
			case 2:
				v = 0x7FFF
			}
			row[i], row[i+1] = byte(v), byte(v>>8)
		}
	}
	orig := bytes.Clone(buf)
	block := buf[start : start+size : start+size]

	apart := make([]int32, rows)
	for i := range apart {
		switch apart[i] = int32(next()); apart[i] >> 8 % 8 {
		case 0:
			apart[i] = math.MinInt32
		case 1:
			apart[i] = math.MaxInt32
		case 2:
			apart[i] = 0
		}
	}
	const canary = 0x5A5A5A5A
	got, want := make([]int32, n+8), make([]int32, n+8)
	for j := range got {
		got[j] = canary
		if j < n {
			got[j] = int32(next())
		}
	}
	copy(want, got)

	macBlock(got[:n:n], apart, block, bstride)
	macBlockGo(want[:n:n], apart, block, bstride)
	for j := range got {
		if got[j] != want[j] {
			what := "lane"
			if j >= n {
				what = "canary lane"
			}
			t.Fatalf("n=%d rows=%d bstride=%d off=%d: %s %d = %#x, Go loops %#x", n, rows, bstride, off, what, j, got[j], want[j])
		}
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("n=%d rows=%d bstride=%d off=%d: block was written", n, rows, bstride, off)
	}
}

// The assembly equals the Go loops on every width from one lane to past
// four 32-lane strips, every row count a page run of wide rows has, the
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
// testdata/fuzz/FuzzMACBlock, one hand-built file per kernel path.
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
