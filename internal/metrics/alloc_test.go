package metrics

import "testing"

// TestHotPathZeroAllocs pins the package's core promise: updating an
// instrument allocates nothing, on both the enabled and the disabled
// (nil) path. A regression here would put garbage-collector pressure
// inside every DPU launch and host transfer.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1000, 4, 12))
	v := r.CounterVec("v", "dpu", 8)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(123456) }},
		{"CounterVec.At.Add", func() { v.At(3).Add(1) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}

	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilV *CounterVec
	nilCases := []struct {
		name string
		fn   func()
	}{
		{"nil Counter.Add", func() { nilC.Add(3) }},
		{"nil Gauge.Set", func() { nilG.Set(7) }},
		{"nil Histogram.Observe", func() { nilH.Observe(9) }},
		{"nil CounterVec.At.Add", func() { nilV.At(3).Add(1) }},
	}
	for _, tc := range nilCases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
