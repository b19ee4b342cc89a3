//go:build !amd64

package cpuid

// AVX2 and POPCNT are false off amd64: every caller runs its Go loops.
const AVX2, POPCNT = false, false
