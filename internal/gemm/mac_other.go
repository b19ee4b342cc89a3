//go:build !amd64

package gemm

func macBlock(acc, apart []int32, block []byte, bstride int) {
	macBlockGo(acc, apart, block, bstride)
}
