package main

import (
	"math"
	"sort"
)

// tailSamplesBeyond is how many samples must lie beyond a percentile
// before it is reported as supported: p95 needs 200 timed operations,
// p99 needs 1,000. Below that the value is still printed (the contract
// wants every metric on every workload) but flagged next to its sample
// count.
const tailSamplesBeyond = 10

// tailSupported reports whether n samples support percentile p (0..1).
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamplesBeyond-1e-9
}

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p (0..1) of v: the smallest
// sample with at least p of the samples at or below it. With fewer than
// 1/(1-p) samples it is the maximum.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
