package main

import (
	"fmt"
	"math/rand"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/plan"
	"pimdnn/internal/yolo"
)

// array_yolo: one image per DPU through yolo.ForwardBatch on the full
// 40-rank system, the BenchmarkFullArrayYOLOForward set-up taken to
// steady state. One operation is one pass; one item is one image.
var arrayYOLO = workload{name: "array_yolo", setup: setupArray}

const (
	arrayTasklets = 8
	arrayTileCols = 64
	arrayWarmups  = 2
	arrayReplays  = 3
)

func arrayNetConfig() yolo.Config {
	return yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}
}

func arrayDPUs(o options) int {
	if o.smoke {
		return dpu.DPUsPerRank
	}
	return dpu.SystemDPUs
}

type arrayState struct {
	o      options
	net    *yolo.Network
	sys    *host.System
	r      *gemm.Runner
	inputs []*yolo.Tensor
	want   []uint64 // host-reference result hash per input
	cycles uint64   // simulated cycles of the first pass
	acc    simCounters
}

// arrayRunner builds the full-array system and its batch-mode runner,
// fixed-mapped or planner-mapped.
func arrayRunner(net *yolo.Network, n int, planned bool) (*host.System, *gemm.Runner, error) {
	sys, err := host.NewSystem(n, host.DefaultConfig(dpu.O3))
	if err != nil {
		return nil, nil, err
	}
	maxK, maxN := net.GEMMBounds()
	cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: arrayTileCols}
	if planned {
		cfg.Planner = plan.New(sys)
	} else {
		cfg.Tasklets = arrayTasklets
	}
	r, err := gemm.NewRunner(sys, cfg)
	if err == nil {
		err = r.EnableBatch(net.MaxFilters())
	}
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, r, nil
}

func setupArray(o options) (*instance, error) {
	net, err := yolo.New(arrayNetConfig())
	if err != nil {
		return nil, err
	}
	n := arrayDPUs(o)
	sys, r, err := arrayRunner(net, n, false)
	if err != nil {
		return nil, err
	}
	s := &arrayState{o: o, net: net, sys: sys, r: r,
		inputs: make([]*yolo.Tensor, n), want: make([]uint64, n)}
	for i := range s.inputs {
		s.inputs[i] = yolo.SyntheticScene(net.Cfg.InputSize, o.seed*1_000_003+int64(i))
		ref, _, err := net.Forward(s.inputs[i], nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.want[i] = hashResult(ref)
	}
	inst := &instance{
		clients: 1,
		items:   n,
		op:      func(_, _ int, sp spanCtx) error { return s.pass(sp) },
		sim: func() (simCounters, error) {
			c := s.acc
			x := s.sys.TransferStats()
			c.xferBytes, c.xferOps = float64(x.Bytes), float64(x.Transfers)
			return c, nil
		},
		layers: s.layers,
		close:  s.close,
	}
	// Every pass checks every image, so the warm-up is the gate: each
	// input's DPU result equals its host reference before timing.
	warm := arrayWarmups
	if o.smoke {
		warm = 1
	}
	if err := warmUp(inst, warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

func (s *arrayState) close() {
	if s.sys != nil {
		s.sys.Close()
		s.sys = nil
	}
}

// pass is one operation: a forward pass of every image, checked against
// the host references and the first pass's simulated cycles.
func (s *arrayState) pass(sp spanCtx) error {
	id := sp.begin("yolo.forward_batch")
	res, st, err := s.net.ForwardBatch(s.inputs, s.r)
	sp.end(id)
	if err != nil {
		return err
	}
	s.acc.cycles += float64(st.Cycles)
	s.acc.waves += float64(len(st.Layers)) // a batch GEMM is one streamed wave
	s.acc.retries += float64(st.Retries)
	for i, r := range res {
		if hashResult(r) != s.want[i] {
			return fmt.Errorf("image %d: DPU result differs from the host reference", i)
		}
	}
	if s.cycles == 0 {
		s.cycles = st.Cycles
	}
	if st.Cycles != s.cycles {
		return fmt.Errorf("simulated cycles %d differ from the first pass's %d", st.Cycles, s.cycles)
	}
	return nil
}

func (s *arrayState) layers(t *traced) error {
	shapes, err := yoloConvShapes(s.net)
	if err != nil {
		return err
	}
	n := len(s.inputs)

	// Replay the batch GEMMs below the first few traced passes: same
	// shapes, width and tasklets, one distinct B buffer per DPU as the
	// real call has (sharing one would hide the memory traffic).
	rng := rand.New(rand.NewSource(s.o.seed))
	var sz xferSizes
	for _, sh := range shapes {
		sz = xferSizes{max(sz.push, sh.k*sh.n*2), max(sz.gather, sh.m*sh.n*2), max(sz.broadcast, sh.m*sh.k*2)}
	}
	bufs := make([][]int16, n)
	bufs[0] = seededInt16(rng, sz.push/2)
	for i := 1; i < n; i++ {
		bufs[i] = append([]int16(nil), bufs[0]...)
	}
	bs := make([][]int16, n)
	parents := t.rec.pick("yolo.forward_batch", arrayReplays)
	for _, parent := range parents {
		for _, sh := range shapes {
			a := seededInt16(rng, sh.m*sh.k)
			for i := range bs {
				bs[i] = bufs[i][:sh.k*sh.n]
			}
			var rerr error
			t.rec.replay("gemm.multiply_batch_each", parent.ID, parent.Op, func(int) {
				_, rerr = s.r.MultiplyBatchEach(sh.m, sh.n, sh.k, 1, a, bs, func(int, []int16) {})
			})
			if rerr != nil {
				return fmt.Errorf("replay layer %d: %w", sh.layer, rerr)
			}
		}
	}
	ix := indexSpans(t.rec.spans)
	var gemmMS, selfMS, gemmShare, selfShare []float64
	for _, parent := range parents {
		d := nsToMS(parent.dur())
		g, self := ix.childSumMS(parent.ID, "gemm.multiply_batch_each"), ix.selfMS(parent.ID)
		gemmMS, selfMS = append(gemmMS, g), append(selfMS, self)
		gemmShare, selfShare = append(gemmShare, g/d), append(selfShare, self/d)
	}
	passMS := median(ix.durMS("yolo.forward_batch"))
	t.set("yolo.forward_batch_ms", passMS)
	t.set("yolo.self_ms_array", median(selfMS))
	t.set("yolo.self_share_array", median(selfShare))
	t.set("gemm.multiply_batch_ms_array", median(gemmMS))
	t.set("gemm.share_array", median(gemmShare))
	t.set("gemm.calls_per_op", float64(len(shapes)))
	// Every DPU retires the same cycles (charges do not depend on
	// operand values), so the array retires cycles × DPUs per pass.
	t.set("dpu.sim_cycles_per_host_s_array", float64(s.cycles)*float64(n)/(passMS/1e3))

	// The workload's system is done; release it before the rungs build
	// their own so two full arrays are never resident at once.
	s.close()

	if err := hostRungs(t, "2560", n, arrayTasklets, sz, false); err != nil {
		return err
	}
	secs, err := newSystemRung(n)
	if err != nil {
		return err
	}
	t.set("host.new_system_ms_2560", secs*1e3)

	// ROADMAP 4c's gate: the planner-mapped pass over the fixed one.
	psys, pr, err := arrayRunner(s.net, n, true)
	if err != nil {
		return err
	}
	defer psys.Close()
	var planned float64
	for i := 0; i < 2; i++ { // the first pass warms, the second is timed
		t0 := time.Now()
		res, _, err := s.net.ForwardBatch(s.inputs, pr)
		if err != nil {
			return fmt.Errorf("planner-mapped pass: %w", err)
		}
		planned = float64(time.Since(t0)) / 1e6
		for j, r := range res {
			if hashResult(r) != s.want[j] {
				return fmt.Errorf("planner-mapped pass: image %d differs from the host reference", j)
			}
		}
	}
	t.set("plan.array_pass_ratio", planned/passMS)
	return nil
}
