package gemm

import (
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
)

// Weight-residency tests. Residency serves the image-per-DPU batch
// mapping: a runner joined to a WeightCache broadcasts a named layer's
// weight matrix into the cache's arena once and skips it on warm calls,
// with the same bits as the re-broadcast path — clean, with DPUs dying,
// and with a whole rank killed. Row calls and anonymous calls are never
// resident.

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
	r := mustRunner(t, sys, cfg)
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

// The batch residency problem: an m×k weight matrix and nImg images of
// k×n. One padded weight row is 40 bytes, so a layer's arena entry is
// 240.
const resM, resN, resK, resImg = 6, 70, 18, 4

// resWeights returns an m×k weight matrix whose content depends on mul.
func resWeights(mul int) []int16 {
	a := make([]int16, resM*resK)
	for i := range a {
		a[i] = int16((i*mul)%11 - 5)
	}
	return a
}

// resImages returns the nImg images and, for weights a, their host
// reference products.
func resImages(t *testing.T, as ...[]int16) (bs [][]int16, wants [][][]int16) {
	t.Helper()
	bs = make([][]int16, resImg)
	for img := range bs {
		bs[img] = make([]int16, resK*resN)
		for i := range bs[img] {
			bs[img][i] = int16((i+img*7)%9 - 4)
		}
	}
	for _, a := range as {
		want := make([][]int16, resImg)
		for img := range bs {
			var err error
			if want[img], err = Reference(resM, resN, resK, 1, a, bs[img]); err != nil {
				t.Fatal(err)
			}
		}
		wants = append(wants, want)
	}
	return bs, wants
}

// layer0 is the named layer the residency tests keep resident.
var layer0 = Layer{Name: "layer0"}

// batchCall runs one MultiplyBatchFill of layer l over the B matrices
// bs and returns the products, the stats and the transfer bytes it
// moved: the tests' one way to name a batch call.
func batchCall(t *testing.T, r *Runner, l Layer, m, n, k int, alpha int16, a []int16, bs [][]int16) ([][]int16, Stats, uint64) {
	t.Helper()
	before, out := r.sys.TransferStats().Bytes, make([][]int16, len(bs))
	st, err := r.MultiplyBatchFill(l, m, n, k, alpha, a, len(bs), func(i, first, count int, block []byte, blockStride int) {
		packRows(block, blockStride, bs[i][first*n:], count, n)
	}, func(int) []int16 { return make([]int16, m*n) }, func(i int, c []int16) { out[i] = c })
	if err != nil {
		t.Fatal(err)
	}
	return out, st, r.sys.TransferStats().Bytes - before
}

// TestMultiplyDropsWeightArm: on a runner joined to a cache, anonymous
// calls are never resident — a row Multiply and a batch call each move
// exactly the transfer bytes of a twin runner with no cache, call after
// call, and leave every cache counter at zero.
func TestMultiplyDropsWeightArm(t *testing.T) {
	const m, n, k = 8, 40, 18
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16}
	r, _, reg := newResidentRunner(t, 8, host.Topology{}, cfg, 4096, "rows")
	twin, err := NewRunner(newSystem(t, 8, dpu.O3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// moved runs an anonymous row and batch call on x and returns the
	// transfer bytes each moved.
	moved := func(x *Runner) [2]uint64 {
		before := x.sys.TransferStats().Bytes
		got, _, err := x.Multiply(m, n, k, 1, a, b)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Multiply differs from the host reference (%v)", err)
		}
		row := x.sys.TransferStats().Bytes - before
		outs, _, batch := batchCall(t, x, Layer{}, m, n, k, 1, a, [][]int16{b, b})
		if !reflect.DeepEqual(outs, [][]int16{want, want}) {
			t.Fatal("the batch call differs from the host reference")
		}
		return [2]uint64{row, batch}
	}
	for _, x := range []*Runner{r, twin} {
		if err := x.EnableBatch(m); err != nil {
			t.Fatal(err)
		}
	}
	for call := 0; call < 3; call++ {
		if got, tw := moved(r), moved(twin); got != tw {
			t.Errorf("call %d moved %v bytes (row, batch), the uncached twin %v", call, got, tw)
		}
	}
	for _, name := range []string{
		"pim_wcache_delivered_bytes_total", "pim_wcache_hits_total", "pim_wcache_misses_total",
		"pim_wcache_redeliveries_total", "pim_wcache_evictions_total",
	} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d, want 0: an anonymous call used the cache", name, v)
		}
	}
}

// TestResidencyLRUBetweenModels: one batch runner re-bound between two
// model names in a shared cache (the serving pattern) co-resides both
// when the budget fits, and thrashes correctly (evict + re-deliver,
// still bit-identical) when it fits only one.
func TestResidencyLRUBetweenModels(t *testing.T) {
	models := []struct {
		name string
		a    []int16
	}{{"alex", resWeights(1)}, {"res", resWeights(5)}}
	bs, wants := resImages(t, models[0].a, models[1].a)
	// One model's entry is 240 bytes: 256 fits one, 512 both.
	for _, tc := range []struct {
		name          string
		capBytes      int64
		wantEvictions bool
	}{
		{"fits-one", 256, true},
		{"fits-both", 512, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: resK, MaxN: resN, Tasklets: 8, TileCols: 16}
			r, cache, reg := newResidentRunner(t, resImg, host.Topology{}, cfg, tc.capBytes, models[0].name)
			if err := r.EnableBatch(resM); err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 3; call++ {
				for i, md := range models {
					r.EnableResidency(cache, md.name)
					if got, _, _ := batchCall(t, r, layer0, resM, resN, resK, 1, md.a, bs); !reflect.DeepEqual(got, wants[i]) {
						t.Fatalf("call %d model %s: products differ from the host reference", call, md.name)
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
// matrix; resident batch forwards must skip the re-broadcast when warm
// — a clean cold call moves exactly the warm call's bytes plus the
// weight bytes delivered — survive DPU deaths and a whole-rank kill
// bit-identically, and keep the hash guard honest when a layer key is
// reused with different weights.
func TestBatchResidency(t *testing.T) {
	a, a2 := resWeights(1), resWeights(3)
	bs, wants := resImages(t, a, a2)
	for _, tc := range []struct {
		name string
		topo host.Topology
		arm  func(sys *host.System)
	}{
		{name: "sync"},
		// Dooms DPU 1 of 4 at its first batch launch.
		{name: "sync-dead", arm: func(sys *host.System) {
			sys.InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 0})
		}},
		// Two ranks of two; rank 0 dies whole at its first launch, so both
		// of its images move to rank 1, whose arena copies stay current.
		{name: "rank-kill", topo: host.Topology{DPUsPerRank: 2}, arm: func(sys *host.System) {
			killDPUs(sys, []int{0, 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunnerConfig{MaxK: resK, MaxN: resN, Tasklets: 8, TileCols: 16}
			r, _, reg := newResidentRunner(t, resImg, tc.topo, cfg, 256, "yolo")
			if err := r.EnableBatch(resM); err != nil {
				t.Fatal(err)
			}
			if tc.arm != nil {
				tc.arm(r.System())
			}
			delivered := reg.Counter("pim_wcache_delivered_bytes_total")
			check := func(call int, a []int16, want [][]int16) uint64 {
				t.Helper()
				got, _, moved := batchCall(t, r, layer0, resM, resN, resK, 1, a, bs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("call %d: products differ from the host reference", call)
				}
				return moved
			}
			cold := check(0, a, wants[0])
			if tc.arm != nil && r.eng.NumDown() == 0 {
				t.Fatal("no DPU went down: the fault cell ran clean")
			}
			afterCold := delivered.Value()
			if afterCold == 0 {
				t.Fatal("cold batch call delivered zero weight bytes")
			}
			warm := check(1, a, wants[0])
			if delivered.Value() != afterCold {
				t.Errorf("warm batch call delivered %d extra weight bytes", delivered.Value()-afterCold)
			}
			if tc.arm == nil && cold != warm+afterCold {
				t.Errorf("cold call moved %d bytes, want warm %d + weights %d", cold, warm, afterCold)
			}
			// Same layer key, retrained weights: the hash guard must force
			// a re-delivery, and results must track the new weights.
			check(2, a2, wants[1])
			if delivered.Value() == afterCold {
				t.Error("weight swap under the same key delivered nothing")
			}
		})
	}
}
