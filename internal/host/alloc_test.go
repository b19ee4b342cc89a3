package host

import (
	"runtime"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
)

// The transfer hot paths must not allocate per call below the sharding
// threshold: the per-layer scatter/gather loops run thousands of times
// per simulated forward pass, and Go-level garbage was the simulator's
// wall-clock bottleneck (the simulated cycle accounting is unaffected
// either way). These tests pin that property.

func allocSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := NewSystem(n, DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.AllocMRAM("buf", 256); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPushXferAllocFree(t *testing.T) {
	s := allocSystem(t, 4)
	ref, err := s.Resolve("buf")
	if err != nil {
		t.Fatal(err)
	}
	buffers := make([][]byte, 4)
	for i := range buffers {
		buffers[i] = make([]byte, 64)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.PushXferRef(ref, 0, buffers); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("PushXferRef allocates %.1f per call, want 0", avg)
	}
	// Resolving per call adds only the symbol-cache lookup.
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.PushXferRef(resolve(t, s, "buf"), 0, buffers); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Resolve + PushXferRef allocates %.1f per call, want 0", avg)
	}
}

func TestGatherXferIntoAllocFree(t *testing.T) {
	s := allocSystem(t, 4)
	ref, err := s.Resolve("buf")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]byte, 4)
	for i := range dst {
		dst[i] = make([]byte, 64)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.GatherXferRefInto(ref, 0, 64, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("GatherXferRefInto allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.GatherXferRefInto(resolve(t, s, "buf"), 0, 64, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Resolve + GatherXferRefInto allocates %.1f per call, want 0", avg)
	}
}

func TestBroadcastAndPerDPUCopyAllocFree(t *testing.T) {
	s := allocSystem(t, 4)
	ref, err := s.Resolve("buf")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	// The one-DPU wave is a re-dispatch's shape, with a reused Stats.
	one := Wave{Start: 2, DPUs: 1, Tasklets: 1, Kernel: func(*dpu.Tasklet) error { return nil }, Stats: &LaunchStats{},
		Scatter: ref, In: [][]byte{data}, Gather: ref, Out: [][]byte{data}}
	for name, call := range map[string]func() error{
		"CopyToSymbolRef": func() error { return s.CopyToSymbolRef(ref, 0, data) },
		"CopyToDPURef":    func() error { return s.CopyToDPURef(2, ref, 0, data) },
		"one-DPU RunWave": func() error { return s.RunWave(one) },
	} {
		if avg := testing.AllocsPerRun(100, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, avg)
		}
	}
}

// waveOn is a scatter, one-op launch and gather wave over s's first n
// DPUs and its "buf", declaring work MACs per DPU.
func waveOn(t *testing.T, s *System, n int, work int64) Wave {
	in, out := make([][]byte, n), make([][]byte, n)
	for i := range in {
		in[i], out[i] = make([]byte, 64), make([]byte, 64)
	}
	ref := resolve(t, s, "buf")
	return Wave{DPUs: n, Tasklets: 1, Work: work, Stats: &LaunchStats{}, Scatter: ref, In: in, Gather: ref, Out: out,
		Kernel: func(tk *dpu.Tasklet) error {
			tk.Charge(dpu.OpAddInt, 1)
			return nil
		}}
}

// A steady-state fused wave that fans out allocates only the worker
// pool's run descriptor (none on one core): the wave's stats reuse the
// caller's PerDPU backing, and the runner's range function is bound
// once, so it captures no per-call state.
func TestWaveSteadyStateAllocBound(t *testing.T) {
	s := allocSystem(t, 2)
	wave := waveOn(t, s, 2, fanOutWork)
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.RunWave(wave); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("steady-state wave allocates %.1f per call, want <= 1", avg)
	}
}

// TestLaunchFanOutRule holds the launch rule (fansOut) at two cores: a
// 64-DPU wave whose predicted work falls short of fanOutWork runs on
// the caller, observing no pool run (pim_host_pool_shards) and
// allocating nothing, and the same wave at fanOutWork fans out.
func TestLaunchFanOutRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 64
	at := int64(fanOutWork/n - dpuHostWork)
	for _, tc := range []struct {
		work   int64
		pooled bool
	}{{0, false}, {at - 1, false}, {at, true}} {
		s := allocSystem(t, n)
		s.EnableMetrics(metrics.NewRegistry())
		wave := waveOn(t, s, n, tc.work)
		allocs := testing.AllocsPerRun(10, func() {
			if err := s.RunWave(wave); err != nil {
				t.Fatal(err)
			}
		})
		if runs := s.pool.shards.Count(); (runs > 0) != tc.pooled || !tc.pooled && allocs != 0 {
			t.Errorf("work %d per DPU: %d pool runs, %.1f allocations per wave; want pooled %v", tc.work, runs, allocs, tc.pooled)
		}
	}
}

// Above the sharding threshold a push and a gather fan out across the
// worker pool; the pool's run descriptor is their one allocation per
// call.
func TestShardedPushXferAllocBound(t *testing.T) {
	s := allocSystem(t, parallelThreshold)
	ref, err := s.Resolve("buf")
	if err != nil {
		t.Fatal(err)
	}
	buffers := make([][]byte, parallelThreshold)
	for i := range buffers {
		buffers[i] = make([]byte, 64)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.PushXferRef(ref, 0, buffers); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("sharded PushXferRef allocates %.1f per call, want <= 1", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.GatherXferRefInto(ref, 0, 64, buffers); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("sharded GatherXferRefInto allocates %.1f per call, want <= 1", avg)
	}
}

// A broadcast repeated over the same MRAM range finds every DPU on the
// pages the first one shared and writes them in place: no page, no pool
// dispatch and no closure per call, on either side of the sharding
// threshold.
func TestRepeatedBroadcastAllocFree(t *testing.T) {
	for _, n := range []int{4, parallelThreshold + 8} {
		s := allocSystem(t, n)
		if err := s.AllocMRAM("big", 3<<16); err != nil {
			t.Fatal(err)
		}
		ref := resolve(t, s, "big")
		// A ragged head, a whole page, a ragged tail.
		data := make([]byte, 2<<16)
		if err := s.CopyToSymbolRef(ref, 512, data); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := s.CopyToSymbolRef(ref, 512, data); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%d DPUs: repeated CopyToSymbolRef allocates %.1f per call, want 0", n, avg)
		}
	}
}
