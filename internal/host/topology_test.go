package host

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"pimdnn/internal/dpu"
)

func topoSystem(t *testing.T, n int, topo Topology) *System {
	t.Helper()
	cfg := DefaultConfig(dpu.O0)
	cfg.Topology = topo
	s, err := NewSystem(n, cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestResolveTopology(t *testing.T) {
	cases := []struct {
		name          string
		n             int
		topo          Topology
		perRank, rank int
		wantErr       bool
	}{
		{name: "zero-value defaults", n: 2560, perRank: dpu.DPUsPerRank, rank: 40},
		{name: "single partial rank", n: 8, perRank: dpu.DPUsPerRank, rank: 1},
		{name: "explicit width", n: 8, topo: Topology{DPUsPerRank: 2}, perRank: 2, rank: 4},
		{name: "partial last rank", n: 10, topo: Topology{DPUsPerRank: 4}, perRank: 4, rank: 3},
		{name: "matching rank count", n: 128, topo: Topology{Ranks: 2, DPUsPerRank: 64}, perRank: 64, rank: 2},
		{name: "rank count mismatch", n: 128, topo: Topology{Ranks: 3, DPUsPerRank: 64}, wantErr: true},
		{name: "negative width", n: 8, topo: Topology{DPUsPerRank: -1}, wantErr: true},
	}
	for _, c := range cases {
		perRank, ranks, err := resolveTopology(c.n, c.topo)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: want error, got perRank=%d ranks=%d", c.name, perRank, ranks)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if perRank != c.perRank || ranks != c.rank {
			t.Errorf("%s: got perRank=%d ranks=%d, want %d/%d", c.name, perRank, ranks, c.perRank, c.rank)
		}
	}
}

func TestTopologyAccessors(t *testing.T) {
	s := topoSystem(t, 10, Topology{DPUsPerRank: 4})
	if s.Ranks() != 3 || s.perRank != 4 {
		t.Fatalf("got %d ranks of %d, want 3 of 4", s.Ranks(), s.perRank)
	}
	if r := s.RankOf(0); r != 0 {
		t.Errorf("RankOf(0) = %d", r)
	}
	if r := s.RankOf(9); r != 2 {
		t.Errorf("RankOf(9) = %d, want 2", r)
	}
	if lo, hi := s.RankSpan(1); lo != 4 || hi != 8 {
		t.Errorf("RankSpan(1) = [%d, %d), want [4, 8)", lo, hi)
	}
	// The last rank is partially filled: its span ends at the DPU count.
	if lo, hi := s.RankSpan(2); lo != 8 || hi != 10 {
		t.Errorf("RankSpan(2) = [%d, %d), want [8, 10)", lo, hi)
	}
}

// tallyErrs runs the runner's rank tally over a transfer's per-DPU
// errors, recorded as the runner records them: a DPU that moved its
// bytes has its phase bit set.
func tallyErrs(s *System, errs []error) (nOK, busiest int) {
	phase := make([]uint8, len(errs))
	for i, e := range errs {
		if e == nil {
			phase[i] = dpu.Scattered
		}
	}
	return s.calls.tallyRanks(phase, 0, dpu.Scattered)
}

func TestRankOKErrs(t *testing.T) {
	s := topoSystem(t, 6, Topology{DPUsPerRank: 2})
	errBoom := errors.New("boom")

	// All OK: three ranks of two, busiest share is 2.
	errs := make([]error, 6)
	if nOK, busiest := tallyErrs(s, errs); nOK != 6 || busiest != 2 {
		t.Errorf("all-ok: got nOK=%d busiest=%d, want 6/2", nOK, busiest)
	}
	// Kill one DPU of rank 0 and all of rank 1: rank 2 is now busiest.
	errs[1] = errBoom
	errs[2] = errBoom
	errs[3] = errBoom
	if nOK, busiest := tallyErrs(s, errs); nOK != 3 || busiest != 2 {
		t.Errorf("partial: got nOK=%d busiest=%d, want 3/2", nOK, busiest)
	}
	// Nothing OK short-circuits without touching the tally.
	for i := range errs {
		errs[i] = errBoom
	}
	if nOK, busiest := tallyErrs(s, errs); nOK != 0 || busiest != 0 {
		t.Errorf("none: got nOK=%d busiest=%d, want 0/0", nOK, busiest)
	}

	// A single-rank system reports busiest == nOK no matter the layout.
	s1 := topoSystem(t, 6, Topology{})
	errs = []error{nil, errBoom, nil, nil, errBoom, nil}
	if nOK, busiest := tallyErrs(s1, errs); nOK != 4 || busiest != 4 {
		t.Errorf("single rank: got nOK=%d busiest=%d, want 4/4", nOK, busiest)
	}
}

func TestRankOKPhase(t *testing.T) {
	s := topoSystem(t, 6, Topology{DPUsPerRank: 2})
	r := &s.waves
	phase := []uint8{dpu.Gathered, 0, dpu.Gathered, dpu.Scattered | dpu.Gathered, dpu.Scattered, 0}
	if nOK, busiest := r.tallyRanks(phase, 0, dpu.Gathered); nOK != 3 || busiest != 2 {
		t.Errorf("got nOK=%d busiest=%d, want 3/2", nOK, busiest)
	}
	if nOK, busiest := r.tallyRanks(make([]uint8, 6), 0, dpu.Gathered); nOK != 0 || busiest != 0 {
		t.Errorf("empty: got nOK=%d busiest=%d, want 0/0", nOK, busiest)
	}
}

// TestRankParallelTransferCharge pins the cost model: a scatter over R
// equally-loaded ranks is charged one rank's serial share, while the
// byte counters still record the full payload, and a single-rank system
// charges bit-identically to the flat pre-topology model.
func TestRankParallelTransferCharge(t *testing.T) {
	const n, perDPU = 8, 4096
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, perDPU)
	}
	push := func(s *System) time.Duration {
		t.Helper()
		if err := s.AllocMRAM("in", perDPU); err != nil {
			t.Fatal(err)
		}
		if err := s.PushXferRef(resolve(t, s, "in"), 0, bufs); err != nil {
			t.Fatal(err)
		}
		return s.HostTransferTime()
	}

	flat := topoSystem(t, n, Topology{}) // one rank of 64 holds all 8
	multi := topoSystem(t, n, Topology{DPUsPerRank: 2})

	cfg := DefaultConfig(dpu.O0)
	wantFlat := cfg.TransferLatency +
		time.Duration(float64(perDPU*n)/cfg.TransferBandwidth*float64(time.Second))
	wantMulti := cfg.TransferLatency +
		time.Duration(float64(perDPU*2)/cfg.TransferBandwidth*float64(time.Second))

	if got := push(flat); got != wantFlat {
		t.Errorf("single-rank charge %v, want flat-model %v", got, wantFlat)
	}
	if got := push(multi); got != wantMulti {
		t.Errorf("4-rank charge %v, want busiest-rank share %v", got, wantMulti)
	}
	// Both record the same traffic: rank parallelism changes time, not bytes.
	fs, ms := flat.TransferStats(), multi.TransferStats()
	if fs.Bytes != uint64(perDPU*n) || ms.Bytes != fs.Bytes {
		t.Errorf("bytes: flat=%d multi=%d, want both %d", fs.Bytes, ms.Bytes, perDPU*n)
	}
}

// TestRunAlignedBoundaries drives runAligned on a hand-built pool with
// several workers and checks every shard boundary is rank-aligned and
// the shards tile [0, n) exactly.
func TestRunAlignedBoundaries(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()

	for _, c := range []struct{ n, align int }{
		{n: 256, align: 64}, {n: 250, align: 64}, {n: 10, align: 4}, {n: 7, align: 1}, {n: 3, align: 64},
	} {
		var mu sync.Mutex
		var spans [][2]int
		touched := make([]int, c.n)
		p.runAligned(c.n, c.align, func(lo, hi int) {
			mu.Lock()
			spans = append(spans, [2]int{lo, hi})
			mu.Unlock()
			for i := lo; i < hi; i++ {
				touched[i]++
			}
		})
		for i, got := range touched {
			if got != 1 {
				t.Fatalf("n=%d align=%d: index %d covered %d times", c.n, c.align, i, got)
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		// A single alignment group (n <= align) degenerates to plain run:
		// every DPU shares one rank, so intra-rank boundaries are fine.
		if c.align > 1 && c.n > c.align {
			for _, sp := range spans {
				if sp[0]%c.align != 0 {
					t.Errorf("n=%d align=%d: shard starts at %d, not rank-aligned", c.n, c.align, sp[0])
				}
			}
		}
	}
}
