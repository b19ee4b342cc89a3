package gemm

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
)

// Weight-residency tests: a runner joined to a WeightCache must produce
// the same bits as the re-scatter path on every call — clean, with 25%
// of the array dead, and with a whole rank killed — while the warm path
// moves zero weight bytes.

// newResidentRunner builds an nDPU system with metrics wired, a weight
// cache of capBytes, and a runner joined to it under model name.
func newResidentRunner(t *testing.T, nDPU int, topo host.Topology, cfg RunnerConfig, capBytes int64, model string) (*Runner, *exec.WeightCache, *metrics.Registry) {
	t.Helper()
	hcfg := host.DefaultConfig(dpu.O3)
	hcfg.Topology = topo
	sys, err := host.NewSystem(nDPU, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	reg := metrics.NewRegistry()
	sys.EnableMetrics(reg)
	cache, err := exec.NewWeightCache(sys, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableResidency(cache, model)
	return r, cache, reg
}

// killDPUs arms a certain-death injector on exactly the given DPUs;
// each dies at its first kernel launch.
func killDPUs(sys *host.System, ids []int) {
	plan := dpu.FaultPlan{Seed: 7, DeadFrac: 1}
	for _, d := range ids {
		sys.DPU(d).InjectFaults(plan.NewInjector(d))
	}
}

// TestResidencyBitIdentity: repeated resident Multiplies must stay
// bit-identical to the host reference and to a twin runner that
// re-scatters weights every call — on a clean array, with the deadPlan
// killing 25% of the DPUs mid-run, and with one whole rank killed.
func TestResidencyBitIdentity(t *testing.T) {
	const m, n, k = 8, 40, 18
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name     string
		topo     host.Topology
		arm      func(sys *host.System)
		wantRetr bool
	}{
		{name: "clean", arm: func(*host.System) {}},
		{
			// deadPlan dooms DPUs 1 and 6 of 8 (25%) after one launch.
			name: "quarter-dead",
			arm:  func(sys *host.System) { sys.InjectFaults(deadPlan) },
		},
		{
			// Two ranks of four; rank 0 dies whole at its first launch,
			// so every one of its resident rows must remap to rank 1.
			name: "rank-kill",
			topo: host.Topology{DPUsPerRank: 4},
			arm:  func(sys *host.System) { killDPUs(sys, []int{0, 1, 2, 3}) },
		},
	}
	modes := []struct {
		name string
		mode host.PipelineMode
	}{
		{"sync", host.PipelineOff},
		{"pipelined", host.PipelineOn},
	}
	for _, sc := range scenarios {
		for _, mode := range modes {
			t.Run(sc.name+"/"+mode.name, func(t *testing.T) {
				cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16, Exec: exec.Config{Pipeline: mode.mode}}
				res, _, _ := newResidentRunner(t, 8, sc.topo, cfg, 64, "bitid")
				sc.arm(res.System())

				// Twin: same faults, no residency — the re-scatter baseline.
				hcfg := host.DefaultConfig(dpu.O3)
				hcfg.Topology = sc.topo
				twinSys, err := host.NewSystem(8, hcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer twinSys.Close()
				twin, err := NewRunner(twinSys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sc.arm(twinSys)

				for call := 0; call < 3; call++ {
					res.SetWeightLayer(0)
					got, _, err := res.Multiply(m, n, k, 3, a, b)
					if err != nil {
						t.Fatalf("call %d: resident Multiply: %v", call, err)
					}
					ref, _, err := twin.Multiply(m, n, k, 3, a, b)
					if err != nil {
						t.Fatalf("call %d: twin Multiply: %v", call, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("call %d element %d: resident %d, want %d", call, i, got[i], want[i])
						}
						if ref[i] != want[i] {
							t.Fatalf("call %d element %d: twin %d, want %d", call, i, ref[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestResidencyWarmSkipsWeightTransfer pins the acceptance criterion:
// after the first scatter, a repeated forward moves zero weight bytes —
// the cache counter stops advancing and the host transfer ledger shows
// the warm calls strictly cheaper than the cold one and identical to
// each other.
func TestResidencyWarmSkipsWeightTransfer(t *testing.T) {
	const m, n, k = 8, 40, 18
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mode host.PipelineMode
	}{{"sync", host.PipelineOff}, {"pipelined", host.PipelineOn}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16, Exec: exec.Config{Pipeline: mode.mode}}
			r, _, reg := newResidentRunner(t, 8, host.Topology{}, cfg, 64, "warm")
			delivered := reg.Counter("pim_wcache_delivered_bytes_total")
			hits := reg.Counter("pim_wcache_hits_total")

			xferAt := func() uint64 { return r.System().TransferStats().Bytes }
			callBytes := make([]uint64, 3)
			for call := 0; call < 3; call++ {
				before := xferAt()
				r.SetWeightLayer(0)
				got, _, err := r.Multiply(m, n, k, 3, a, b)
				if err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
				callBytes[call] = xferAt() - before
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("call %d element %d: got %d, want %d", call, i, got[i], want[i])
					}
				}
				if call == 0 {
					if delivered.Value() == 0 {
						t.Fatal("cold call delivered zero weight bytes")
					}
					coldDelivered := delivered.Value()
					_ = coldDelivered
				}
			}
			coldDelivered := delivered.Value()
			// Warm calls move zero weight bytes: the delivery counter is
			// frozen at the cold call's total and both warm calls hit.
			rowBytes := uint64((k*2 + 7) &^ 7)
			if coldDelivered != rowBytes*8 {
				t.Errorf("delivered %d weight bytes, want %d (one row per DPU, once)",
					coldDelivered, rowBytes*8)
			}
			if hits.Value() != 2 {
				t.Errorf("hits = %d, want 2 (both warm calls)", hits.Value())
			}
			if callBytes[1] != callBytes[2] {
				t.Errorf("warm calls moved different byte counts: %d vs %d", callBytes[1], callBytes[2])
			}
			if callBytes[0] != callBytes[1]+coldDelivered {
				t.Errorf("cold call moved %d bytes, want warm %d + weights %d",
					callBytes[0], callBytes[1], coldDelivered)
			}
		})
	}
}

// TestResidencyRemapNeverServesStale is the regression for the core
// hazard: a shard re-dispatched onto a surviving DPU overwrites that
// DPU's resident arena slot with the retried row, so without per-DPU
// invalidation the *next* call would compute with the wrong row. The
// deadPlan kills DPUs 1 and 6 after one launch; calls after the deaths
// must re-deliver the clobbered rows and stay bit-identical.
func TestResidencyRemapNeverServesStale(t *testing.T) {
	const m, n, k = 8, 40, 18
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mode host.PipelineMode
	}{{"sync", host.PipelineOff}, {"pipelined", host.PipelineOn}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16, Exec: exec.Config{Pipeline: mode.mode}}
			r, _, reg := newResidentRunner(t, 8, host.Topology{}, cfg, 64, "remap")
			r.System().InjectFaults(deadPlan)
			retries := 0
			for call := 0; call < 4; call++ {
				r.SetWeightLayer(0)
				got, st, err := r.Multiply(m, n, k, 3, a, b)
				if err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
				retries += st.Retries
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("call %d element %d: got %d, want %d — replacement DPU served stale weights",
							call, i, got[i], want[i])
					}
				}
			}
			if retries == 0 {
				t.Fatal("no re-dispatches; the deadPlan should have killed DPUs mid-run")
			}
			// The clobbered survivors were caught up, not silently trusted.
			if reg.Counter("pim_wcache_redeliveries_total").Value() == 0 {
				t.Error("no per-DPU redeliveries recorded after remaps")
			}
		})
	}
}

// TestResidencyLRUBetweenModels: one runner re-bound between two model
// names in a shared cache (the serving pattern) co-resides both when
// the budget fits, and thrashes correctly (evict + re-deliver, still
// bit-identical) when it fits only one.
func TestResidencyLRUBetweenModels(t *testing.T) {
	const m, n, k = 8, 40, 18
	a, b := pipelineProblem(m, n, k)
	a2 := make([]int16, len(a))
	for i := range a2 {
		a2[i] = int16((i*5)%13 - 6)
	}
	want1, err := Reference(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Reference(m, n, k, 3, a2, b)
	if err != nil {
		t.Fatal(err)
	}
	// rowBytes = 40, so 64 fits exactly one model's entry and 128 both.
	for _, tc := range []struct {
		name          string
		capBytes      int64
		wantEvictions bool
	}{
		{"fits-one", 64, true},
		{"fits-both", 128, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16}
			r, cache, reg := newResidentRunner(t, 8, host.Topology{}, cfg, tc.capBytes, "alex")
			for call := 0; call < 3; call++ {
				r.EnableResidency(cache, "alex")
				r.SetWeightLayer(0)
				got1, _, err := r.Multiply(m, n, k, 3, a, b)
				if err != nil {
					t.Fatalf("call %d model alex: %v", call, err)
				}
				r.EnableResidency(cache, "res")
				r.SetWeightLayer(0)
				got2, _, err := r.Multiply(m, n, k, 3, a2, b)
				if err != nil {
					t.Fatalf("call %d model res: %v", call, err)
				}
				for i := range want1 {
					if got1[i] != want1[i] {
						t.Fatalf("call %d model alex element %d: got %d, want %d", call, i, got1[i], want1[i])
					}
					if got2[i] != want2[i] {
						t.Fatalf("call %d model res element %d: got %d, want %d", call, i, got2[i], want2[i])
					}
				}
			}
			evictions := reg.Counter("pim_wcache_evictions_total").Value()
			if tc.wantEvictions && evictions == 0 {
				t.Error("budget fits one model but nothing was evicted")
			}
			if !tc.wantEvictions && evictions != 0 {
				t.Errorf("budget fits both models but %d evictions occurred", evictions)
			}
			if !tc.wantEvictions {
				// Co-residency: warm calls from both models skip delivery.
				if got := reg.Counter("pim_wcache_hits_total").Value(); got != 4 {
					t.Errorf("hits = %d, want 4 (two warm calls per model)", got)
				}
			}
		})
	}
}

// TestBatchResidency: the image-per-DPU mapping broadcasts its weight
// matrix; resident batch forwards must skip the re-broadcast when warm,
// survive a mid-batch DPU death bit-identically, and keep the hash
// guard honest when a layer key is reused with different weights.
func TestBatchResidency(t *testing.T) {
	const m, n, k = 6, 70, 18
	const nImg = 4
	a := make([]int16, m*k)
	for i := range a {
		a[i] = int16(i%11 - 5)
	}
	bs := make([][]int16, nImg)
	for img := range bs {
		bs[img] = make([]int16, k*n)
		for i := range bs[img] {
			bs[img][i] = int16((i+img*7)%9 - 4)
		}
	}
	want := make([][]int16, nImg)
	for img := range bs {
		var err error
		want[img], err = Reference(m, n, k, 1, a, bs[img])
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		mode host.PipelineMode
		arm  bool
	}{
		{"sync", host.PipelineOff, false},
		{"pipelined", host.PipelineOn, false},
		{"sync-dead", host.PipelineOff, true},
		{"pipelined-dead", host.PipelineOn, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16, Exec: exec.Config{Pipeline: tc.mode}}
			r, _, reg := newResidentRunner(t, 4, host.Topology{}, cfg, 256, "yolo")
			if err := r.EnableBatch(m); err != nil {
				t.Fatal(err)
			}
			if tc.arm {
				// Dooms DPU 1 of 4 at its first batch launch.
				r.System().InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 0})
			}
			delivered := reg.Counter("pim_wcache_delivered_bytes_total")
			check := func(call int) {
				t.Helper()
				r.SetWeightLayer(0)
				outs := make([][]int16, nImg)
				_, err := r.MultiplyBatchEach(m, n, k, 1, a, bs, func(i int, c []int16) {
					outs[i] = append([]int16(nil), c...)
				})
				if err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
				for img := range want {
					for i := range want[img] {
						if outs[img][i] != want[img][i] {
							t.Fatalf("call %d image %d element %d: got %d, want %d",
								call, img, i, outs[img][i], want[img][i])
						}
					}
				}
			}
			check(0)
			afterCold := delivered.Value()
			if afterCold == 0 {
				t.Fatal("cold batch call delivered zero weight bytes")
			}
			check(1)
			if !tc.arm && delivered.Value() != afterCold {
				t.Errorf("warm batch call delivered %d extra weight bytes",
					delivered.Value()-afterCold)
			}
			// Same layer key, retrained weights: the hash guard must force
			// a re-delivery, and results must track the new weights.
			a2 := make([]int16, len(a))
			for i := range a2 {
				a2[i] = int16((i*3)%7 - 3)
			}
			want2, err := Reference(m, n, k, 1, a2, bs[0])
			if err != nil {
				t.Fatal(err)
			}
			beforeSwap := delivered.Value()
			r.SetWeightLayer(0)
			outs := make([][]int16, nImg)
			if _, err := r.MultiplyBatchEach(m, n, k, 1, a2, bs, func(i int, c []int16) {
				outs[i] = append([]int16(nil), c...)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range want2 {
				if outs[0][i] != want2[i] {
					t.Fatalf("post-swap element %d: got %d, want %d — hash guard missed the retrain",
						i, outs[0][i], want2[i])
				}
			}
			if delivered.Value() == beforeSwap {
				t.Error("weight swap under the same key delivered nothing")
			}
		})
	}
}
