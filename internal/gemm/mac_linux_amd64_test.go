package gemm

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps n data pages with an inaccessible page on either side, so
// a load or store one byte outside the data faults instead of passing.
func guarded(t *testing.T, n int) []byte {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (n+2)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	for _, g := range [][]byte{mem[:page], mem[(n+1)*page:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return mem[page : (n+1)*page]
}

// The assembly stays inside the extents the wrapper proved: acc, a
// (rows*2 bytes) and block each sit flush against a PROT_NONE page —
// first ending at the page after them, then starting at the page before
// — on every width through two 32-lane strips, and the result is still
// the Go loops'. A fault surfaces as a panic (SetPanicOnFault) and fails the
// shape that caused it.
func TestMACBlockStaysInsideGuardPages(t *testing.T) {
	needVectorMAC(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const maxRows, maxStride = 5, 2048
	accMem, aMem, blockMem := guarded(t, 1), guarded(t, 1), guarded(t, 3)
	rng := rand.New(rand.NewSource(5))
	rng.Read(aMem)
	rng.Read(blockMem)
	// place cuts size bytes from the end or the start of mem.
	place := func(mem []byte, size int, atEnd bool) []byte {
		if atEnd {
			return mem[len(mem)-size:]
		}
		return mem[:size:size]
	}
	for n := 1; n <= 70; n++ {
		rowBytes := pad4(n) * 2
		for rows := 1; rows <= maxRows; rows++ {
			for _, bstride := range []int{0, rowBytes, rowBytes + 8, maxStride} {
				for _, atEnd := range []bool{true, false} {
					acc := unsafe.Slice((*int32)(unsafe.Pointer(&place(accMem, n*4, atEnd)[0])), n)
					a := place(aMem, rows*2, atEnd)
					block := place(blockMem, (rows-1)*bstride+rowBytes, atEnd)
					want := make([]int32, n)
					for j := range acc {
						acc[j] = rng.Int31()
						want[j] = acc[j]
					}
					macBlockGo(want, a, block, bstride)
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Fatalf("n=%d rows=%d bstride=%d atEnd=%v: touched a guard page: %v", n, rows, bstride, atEnd, p)
							}
						}()
						macBlock(acc, a, block, bstride)
					}()
					for j := range want {
						if acc[j] != want[j] {
							t.Fatalf("n=%d rows=%d bstride=%d atEnd=%v: lane %d = %#x, Go loops %#x", n, rows, bstride, atEnd, j, acc[j], want[j])
						}
					}
				}
			}
		}
	}
}
