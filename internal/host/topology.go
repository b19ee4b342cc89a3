// Rank/DIMM topology. The evaluated UPMEM system is 2,560 DPUs in 40
// ranks of 64 (Table 2.1); the host reaches every rank through its own
// DDR channel slice, so a transfer touching many ranks streams to them
// in parallel — the PrIM measurements show aggregate scatter/gather
// bandwidth growing with the rank count while the per-rank rate stays
// fixed. The System models that here: Config.Topology groups the DPUs
// into ranks, TransferBandwidth becomes the per-rank channel rate, and
// every multi-DPU transfer is charged the busiest rank's serial share
// (latency counted once per API call) instead of the whole payload
// serially. Systems that fit in one rank — every configuration the
// experiments ran before full-array scale-out — charge exactly what the
// flat model charged, bit for bit.
package host

import (
	"fmt"

	"pimdnn/internal/dpu"
)

// Topology describes how a System's DPUs are grouped into DIMM ranks.
// The zero value models the real machine: ranks of dpu.DPUsPerRank (64)
// DPUs, as many as the DPU count fills.
type Topology struct {
	// Ranks is the rank count. Zero derives it from the DPU count and
	// DPUsPerRank; non-zero values must match that derivation (the
	// field exists so configurations can state their shape explicitly
	// and fail loudly when the DPU count drifts).
	Ranks int
	// DPUsPerRank is the rank width. Zero means dpu.DPUsPerRank. DPUs
	// i with i/DPUsPerRank == r belong to rank r; only the last rank
	// may be partially filled.
	DPUsPerRank int
}

// resolveTopology validates cfg.Topology against the DPU count and
// returns the effective rank width and rank count.
func resolveTopology(n int, t Topology) (perRank, ranks int, err error) {
	perRank = t.DPUsPerRank
	if perRank == 0 {
		perRank = dpu.DPUsPerRank
	}
	if perRank < 1 {
		return 0, 0, fmt.Errorf("host: non-positive DPUsPerRank %d", t.DPUsPerRank)
	}
	ranks = (n + perRank - 1) / perRank
	if t.Ranks != 0 && t.Ranks != ranks {
		return 0, 0, fmt.Errorf("host: topology declares %d ranks, but %d DPUs at %d per rank form %d",
			t.Ranks, n, perRank, ranks)
	}
	return perRank, ranks, nil
}

// Ranks returns the number of DIMM ranks the system's DPUs span.
func (s *System) Ranks() int { return s.ranks }

// RankOf returns the rank DPU i belongs to.
func (s *System) RankOf(i int) int { return i / s.perRank }

// RankSpan returns the DPU index range [lo, hi) of rank r.
func (s *System) RankSpan(r int) (lo, hi int) {
	lo = r * s.perRank
	hi = lo + s.perRank
	if n := len(s.dpus); hi > n {
		hi = n
	}
	return lo, hi
}

// tallyRanks counts the DPUs of a request from DPU start whose phase
// has bit set, and the busiest rank's share of them: the DPUs a transfer
// charge covers and the count its duration is timed by. On a
// single-rank system, or for at most one DPU, busiest == nOK without
// touching the tally scratch.
func (r *phaseRunner) tallyRanks(phase []uint8, start int, bit uint8) (nOK, busiest int) {
	for _, p := range phase {
		if p&bit != 0 {
			nOK++
		}
	}
	s := r.s
	if s.ranks == 1 || nOK <= 1 {
		return nOK, nOK
	}
	if cap(r.tally) < s.ranks {
		r.tally = make([]int, s.ranks)
	}
	tally := r.tally[:s.ranks]
	clear(tally)
	for i, p := range phase {
		if p&bit != 0 {
			rk := (start + i) / s.perRank
			tally[rk]++
			busiest = max(busiest, tally[rk])
		}
	}
	return nOK, busiest
}
