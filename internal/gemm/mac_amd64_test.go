package gemm

import "testing"

// macExtent is all that stands between a caller's slices and unchecked
// assembly: it must accept exactly the geometries that fit and panic on
// the rest, including the ones whose rows·bstride product would overflow.
func TestMACExtent(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	for _, c := range []struct {
		name                       string
		blockLen, rows, rb, stride int
		fits                       bool
	}{
		{"one row exactly", 16, 1, 16, 0, true},
		{"one row, any stride", 16, 1, 16, maxInt, true},
		{"one row, negative stride", 16, 1, 16, -8, true},
		{"one row short by a byte", 15, 1, 16, 0, false},
		{"packed rows exactly", 48, 3, 16, 16, true},
		{"packed rows short by a byte", 47, 3, 16, 16, false},
		{"zero row shared by all", 16, 40, 16, 0, true},
		{"strided exactly", 2*2048 + 16, 3, 16, 2048, true},
		{"strided one stride too many", 2*2048 + 16, 4, 16, 2048, false},
		{"negative stride", 64, 2, 16, -8, false},
		{"product wraps to zero", 64, 5, 16, 1 << 62, false},
		{"product wraps negative", 64, 3, 16, 1 << 62, false},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			macExtent(make([]byte, c.blockLen), c.rows, c.rb, c.stride)
			return
		}()
		if panicked == c.fits {
			t.Errorf("%s: block %d B, %d rows of %d B at stride %d: panicked=%v, want fits=%v",
				c.name, c.blockLen, c.rows, c.rb, c.stride, panicked, c.fits)
		}
	}
}
