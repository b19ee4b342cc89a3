package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/plan"
	"pimdnn/internal/softfloat"
)

// Standalone rungs: each times one exported call of a lower layer on
// operands the harness owns, at sizes taken from the workload that
// reports it. They run only in traced runs.

// pad8 is the host runtime's 8-byte transfer granularity; pad4 rounds a
// column count so 2-byte rows keep it (gemm's B and C row stride).
func pad8(n int) int { return (n + 7) &^ 7 }
func pad4(n int) int { return (n + 3) &^ 3 }

func nullKernel(*dpu.Tasklet) error { return nil }

// rungBuf is the harness-owned MRAM symbol the transfer rungs use.
const rungBuf = "bench_buf"

// xferSizes is a workload's largest per-wave payload, per DPU.
type xferSizes struct{ push, gather, broadcast int }

// perDPUBufs returns n buffers of size bytes over one backing array,
// filled so every page is a real page (a never-written buffer reads
// from the shared zero page and copies faster than any payload would).
func perDPUBufs(n, size int) [][]byte {
	flat := make([]byte, n*size)
	for i := range flat {
		flat[i] = byte(i)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = flat[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// hostRungs times the host runtime's transfers, a null launch and a
// null wave on a fresh n-DPU system, and sets host.*_<suffix> and
// exec.null_wave*_<suffix>. pipelined adds the double-buffered null
// wave (reported only at the row workloads' width).
func hostRungs(t *traced, suffix string, n, tasklets int, sz xferSizes, pipelined bool) error {
	sys, err := host.NewSystem(n, host.DefaultConfig(dpu.O3))
	if err != nil {
		return err
	}
	defer sys.Close()
	sz = xferSizes{pad8(sz.push), pad8(sz.gather), pad8(sz.broadcast)}
	if err := sys.AllocMRAM(rungBuf, int64(max(sz.push, sz.gather, sz.broadcast))); err != nil {
		return err
	}
	ref, err := sys.Resolve(rungBuf)
	if err != nil {
		return err
	}
	const reps = 5
	in := perDPUBufs(n, sz.push)
	s, err := timeMedian(reps, func() error { return sys.PushXferRef(ref, 0, in) })
	if err != nil {
		return err
	}
	t.set("host.push_ms_"+suffix, s*1e3)
	out := perDPUBufs(n, sz.gather)
	if s, err = timeMedian(reps, func() error { return sys.GatherXferRefInto(ref, 0, sz.gather, out) }); err != nil {
		return err
	}
	t.set("host.gather_ms_"+suffix, s*1e3)
	all := perDPUBufs(1, sz.broadcast)[0]
	if s, err = timeMedian(reps, func() error { return sys.CopyToSymbolRef(ref, 0, all) }); err != nil {
		return err
	}
	t.set("host.broadcast_ms_"+suffix, s*1e3)
	if s, err = timeMedian(2*reps, func() error {
		_, err := sys.LaunchOn(n, tasklets, nullKernel)
		return err
	}); err != nil {
		return err
	}
	t.set("host.launch_null_us_"+suffix, s*1e6)

	if s, err = nullWave(sys, ref, n, tasklets, host.PipelineOff); err != nil {
		return err
	}
	t.set("exec.null_wave_us_"+suffix, s*1e6)
	if pipelined {
		if s, err = nullWave(sys, ref, n, tasklets, host.PipelineOn); err != nil {
			return err
		}
		t.set("exec.null_wave_pipelined_us_"+suffix, s*1e6)
	}
	return nil
}

// nullWaves is how many waves one null dispatch spans: enough that the
// pipelined loop has a previous wave to flush while the next is queued.
const nullWaves = 4

// nullSet is a WorkSet that costs nothing but the wave loop: a kernel
// that charges no cycles and 8-byte scatter and gather streams.
type nullSet struct {
	width, tasklets int
	ref             host.SymbolRef
	in, out         [2][][]byte
}

func (w *nullSet) Shards() int                  { return nullWaves * w.width }
func (w *nullSet) Tasklets() int                { return w.tasklets }
func (w *nullSet) Kernel() dpu.KernelFunc       { return nullKernel }
func (w *nullSet) Broadcasts() []exec.Broadcast { return nil }
func (w *nullSet) Encode(slot, start, n int)    {}
func (w *nullSet) Decode(slot, shard, i int)    {}
func (w *nullSet) Scatter(slot, n int) []exec.Stream {
	return []exec.Stream{{Ref: w.ref, Bufs: w.in[slot]}}
}
func (w *nullSet) Gather(slot, n int) exec.Stream {
	return exec.Stream{Ref: w.ref, Bufs: w.out[slot]}
}

// nullWave returns the median host seconds per wave of Engine.Run over
// a nullSet.
func nullWave(sys *host.System, ref host.SymbolRef, n, tasklets int, mode host.PipelineMode) (float64, error) {
	eng := exec.New(sys, exec.Config{Pipeline: mode})
	ws := &nullSet{width: n, tasklets: tasklets, ref: ref}
	for slot := range ws.in {
		ws.in[slot], ws.out[slot] = perDPUBufs(n, 8), perDPUBufs(n, 8)
	}
	s, err := timeMedian(10, func() error {
		var st exec.Stats
		if err := eng.Run(ws, &st); err != nil {
			return err
		}
		if st.Waves != nullWaves || st.Cycles != 0 {
			return fmt.Errorf("null wave set ran %d waves, %d cycles; want %d, 0", st.Waves, st.Cycles, nullWaves)
		}
		return nil
	})
	return s / nullWaves, err
}

// newSystemRung times allocating (and releasing) an n-DPU system.
func newSystemRung(n int) (float64, error) {
	return timeMedian(3, func() error {
		sys, err := host.NewSystem(n, host.DefaultConfig(dpu.O3))
		if err != nil {
			return err
		}
		sys.Close()
		return nil
	})
}

// dpuRungs times one DPU's launch at 1 and 16 tasklets, one block
// charge, one 2 KB MRAM->WRAM DMA, and states the simulator's accuracy
// against thesis Table 3.1.
func dpuRungs(t *traced) error {
	d, err := dpu.New(dpu.DefaultConfig(dpu.O3))
	if err != nil {
		return err
	}
	for _, tl := range []int{1, 16} {
		s, err := timeMedianOf(20, 1000, func() error {
			_, err := d.Launch(tl, nullKernel)
			return err
		})
		if err != nil {
			return err
		}
		t.set(fmt.Sprintf("dpu.launch_us_t%d", tl), s*1e6)
	}

	const inner = 20000
	block := dpu.NewCostBlock().AddOp(dpu.OpLoad, 64).AddOp(dpu.OpMul16, 32).AddOp(dpu.OpAddInt, 32).AddDMA(1, 512)
	// One launch amortized over inner calls: the launch itself is a few
	// hundred ns against inner x the call.
	perCall := func(body func(*dpu.Tasklet)) (float64, error) {
		s, err := timeMedian(20, func() error {
			_, err := d.Launch(1, func(tk *dpu.Tasklet) error {
				for i := 0; i < inner; i++ {
					body(tk)
				}
				return nil
			})
			return err
		})
		return s / inner * 1e9, err
	}
	ns, err := perCall(func(tk *dpu.Tasklet) { tk.ChargeBlock(block) })
	if err != nil {
		return err
	}
	t.set("dpu.charge_block_ns", ns)
	if ns, err = perCall(func(tk *dpu.Tasklet) { tk.MRAMToWRAM(0, 0, 2048) }); err != nil {
		return err
	}
	t.set("dpu.dma_2kb_ns", ns)

	relErr, err := table31MaxRelErr()
	if err != nil {
		return err
	}
	t.set("dpu.table31_max_rel_err", relErr)
	return nil
}

// table31MaxRelErr runs the thesis's Table 3.1 microbenchmark (O0, one
// tasklet, perfcounter around one operation) and returns the largest
// relative difference between simulated and published cycles.
func table31MaxRelErr() (float64, error) {
	cases := []struct {
		body  func(*dpu.Tasklet)
		paper float64
	}{
		{func(t *dpu.Tasklet) { t.Add32(3, 4) }, 272},
		{func(t *dpu.Tasklet) { t.Sub32(3, 4) }, 272},
		{func(t *dpu.Tasklet) { t.Mul8(3, 4) }, 272},
		{func(t *dpu.Tasklet) { t.Mul16(300, 40) }, 608},
		{func(t *dpu.Tasklet) { t.Mul32(3e6, 40) }, 800},
		{func(t *dpu.Tasklet) { t.Div32(300, 4) }, 368},
		{func(t *dpu.Tasklet) { t.FAdd(0x40400000, 0x40800000) }, 896},
		{func(t *dpu.Tasklet) { t.FSub(0x40400000, 0x40800000) }, 928},
		{func(t *dpu.Tasklet) { t.FMul(0x40400000, 0x40800000) }, 2528},
		{func(t *dpu.Tasklet) { t.FDiv(0x40400000, 0x40800000) }, 12064},
	}
	var worst float64
	for _, c := range cases {
		d, err := dpu.New(dpu.DefaultConfig(dpu.O0))
		if err != nil {
			return 0, err
		}
		var cycles uint64
		if _, err := d.Launch(1, func(t *dpu.Tasklet) error {
			t.PerfcounterConfig()
			t.Charge(dpu.OpNop, 21)
			c.body(t)
			cycles = t.PerfcounterGet()
			return nil
		}); err != nil {
			return 0, err
		}
		if e := math.Abs(float64(cycles)-c.paper) / c.paper; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// softfloatRungs times the batched software-float lane kernels, per
// element.
func softfloatRungs(t *traced, seed int64) {
	const n = 4096
	rng := rand.New(rand.NewSource(seed))
	a, b, dst := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range a {
		a[i] = softfloat.FromFloat32(rng.Float32()*200 - 100)
		b[i] = softfloat.FromFloat32(rng.Float32()*50 + 0.5)
	}
	for _, k := range []struct {
		name string
		fn   func(dst, a, b []uint32)
	}{
		{"softfloat.add_ns", softfloat.AddSlice},
		{"softfloat.mul_ns", softfloat.MulSlice},
		{"softfloat.div_ns", softfloat.DivSlice},
	} {
		s, _ := timeMedian(50, func() error { k.fn(dst, a, b); return nil })
		t.set(k.name, s/n*1e9)
	}
}

// planRungs times the planner on a set of GEMM shapes, as a row-mapped
// runner asks (no image batch): a warm, memoized lookup — the cost every
// planner-mapped Multiply pays — and the first, cold search of each
// shape on a fresh planner.
func planRungs(t *traced, sys *host.System, shapes []convShape, opts plan.GEMMOptions) {
	// The search is memoized per shape, so only a shape's first call on
	// a fresh planner is cold: one planner per repetition, one sample
	// per distinct shape.
	var cold []float64
	for rep := 0; rep < 20; rep++ {
		p := plan.New(sys)
		seen := make(map[convShape]bool)
		for _, sh := range shapes {
			sh.layer = 0
			if seen[sh] {
				continue
			}
			seen[sh] = true
			t0 := time.Now()
			p.Plan(sh.m, sh.n, sh.k, 0, opts)
			cold = append(cold, float64(time.Since(t0))/1e3)
		}
	}
	t.set("plan.cold_search_us", median(cold))
	p := plan.New(sys)
	const lookups = 2000
	s, _ := timeMedian(10, func() error {
		for i := 0; i < lookups; i++ {
			sh := shapes[i%len(shapes)]
			p.Plan(sh.m, sh.n, sh.k, 0, opts)
		}
		return nil
	})
	t.set("plan.lookup_ns", s/lookups*1e9)
}
