//go:build !amd64

package gemm

func macBlock(acc []int32, a, block []byte, bstride int) {
	macBlockGo(acc, a, block, bstride)
}
