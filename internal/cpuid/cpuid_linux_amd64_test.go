package cpuid

import (
	"os"
	"regexp"
	"testing"
)

// The hand-rolled CPUID + XGETBV checks agree with the kernel's own
// reading of the same bits.
func TestFeaturesMatchProcCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	for _, f := range []struct {
		flag string
		got  bool
	}{{"avx2", AVX2}, {"popcnt", POPCNT}} {
		if want := regexp.MustCompile(`(?m)^flags\s*:.*\b` + f.flag + `\b`).Match(info); f.got != want {
			t.Errorf("%s: detected %v, /proc/cpuinfo lists it: %v", f.flag, f.got, want)
		}
	}
}
