// Package cpuid reads, once, the x86 features the repository's assembly
// needs: CPUID for the instruction sets, XGETBV for whether the OS saves
// the YMM registers. Off amd64 every feature is false.
package cpuid

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32) // XCR0's low half

// AVX2 is true when the CPU has AVX2 and the OS saves the YMM registers,
// POPCNT when the CPU has POPCNT. Written once, here; nothing sets them.
var AVX2, POPCNT = detect()

func detect() (avx2, popcnt bool) {
	const osxsaveAVX, avx2Bit, popcntBit, ymmState = 1<<27 | 1<<28, 1 << 5, 1 << 23, 6
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	popcnt = c&popcntBit != 0
	if maxLeaf < 7 || c&osxsaveAVX != osxsaveAVX {
		return false, popcnt
	}
	lo := xgetbv() // legal: OSXSAVE is set
	_, b, _, _ := cpuid(7, 0)
	return lo&ymmState == ymmState && b&avx2Bit != 0, popcnt
}
