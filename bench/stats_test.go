package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Fewer than 1/(1-p) samples: the percentile is the slowest sample.
	if got := percentile([]float64{2, 9, 4, 3, 1}, 0.95); got != 9 {
		t.Errorf("p95 of 5 samples = %v, want the maximum 9", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// A tail percentile is supported only with ten samples beyond it.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {8, 0.95, false},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "items_per_s", Better: "higher", Bound: 0.10}
	cycles := metricDef{Name: "sim_cycles_per_op", Better: "lower", Bound: 0.01}
	for _, c := range []struct {
		d        metricDef
		workload string
		lo, hi   float64
		perLayer bool
		bad      bool
	}{
		{lower, "rows_zoo", 100, 109, false, false},
		{lower, "rows_zoo", 100, 111, false, true},
		{higher, "rows_zoo", 91, 100, false, false},
		{higher, "rows_zoo", 89, 100, false, true},
		{cycles, "rows_zoo", 1000, 1000, false, false},
		{cycles, "rows_zoo", 1000, 1001, false, true},      // in-process: exact
		{cycles, "serve_closed", 1000, 1009, false, false}, // server: within bound
		{cycles, "serve_closed", 1000, 1011, false, true},
		{lower, "rows_zoo", 100, 300, true, false}, // per-layer: no bound
	} {
		_, _, verdict := compare(c.d, c.workload, c.lo, c.hi, c.perLayer)
		if (verdict != "") != c.bad {
			t.Errorf("compare(%s, %s, %v, %v) verdict %q, want disagreement=%v", c.d.Name, c.workload, c.lo, c.hi, verdict, c.bad)
		}
	}
}
