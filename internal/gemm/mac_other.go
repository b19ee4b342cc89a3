//go:build !amd64

package gemm

// useAVX2 is false off amd64: macBlock is the Go loops.
const useAVX2 = false

func macBlock(acc, apart []int32, block []byte, bstride int) {
	macBlockGo(acc, apart, block, bstride)
}
