package main

import (
	"fmt"
	"math/rand"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// rows_zoo: the thesis's Alg 2 row-per-DPU mapping through
// Runner.Multiply, planner-mapped as examples/cnn-zoo deploys. One
// operation is one single-image forward of each of the three lite
// networks on its own 64-DPU system; one item is one forward.
var rowsZoo = workload{name: "rows_zoo", setup: setupRows}

const (
	rowsDPUs    = dpu.DPUsPerRank
	rowsPool    = 32
	rowsReplays = 5
)

// fwdOut is what one forward of one network reports to the harness.
type fwdOut struct {
	hash, cycles          uint64
	waves, calls, retries int
}

// rowsNet is one of the three networks with everything an operation
// needs: its system, its planner-mapped runner, its image pool and the
// host-reference result of every pool image.
type rowsNet struct {
	span   string
	sys    *host.System
	r      *gemm.Runner
	pool   []*tensor.Tensor
	want   []uint64
	cycles uint64
	// forward runs one image; a nil runner is the host reference.
	forward func(img *tensor.Tensor, r *gemm.Runner) (fwdOut, error)
}

type rowsState struct {
	o          options
	nets       []*rowsNet
	ynet       *yolo.Network
	xfer       host.SymbolRef // harness-owned symbol on the yolo system
	acc        simCounters
	callsPerOp int
}

// waveCount is how many waves a row-mapped GEMM of m rows took when its
// widest wave used width DPUs.
func waveCount(m, width int) int {
	if width < 1 || m <= width {
		return 1
	}
	return (m + width - 1) / width
}

func randomImage(rng *rand.Rand, size int) *tensor.Tensor {
	t := tensor.New(3, size, size)
	for i := range t.Data {
		t.Data[i] = tensor.Quantize(rng.Float64())
	}
	return t
}

func setupRows(o options) (*instance, error) {
	s := &rowsState{o: o}
	pool := rowsPool
	if o.smoke {
		pool = 2
	}
	rng := rand.New(rand.NewSource(o.seed))

	ynet, err := yolo.New(yolo.LiteConfig())
	if err != nil {
		return nil, err
	}
	s.ynet = ynet
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		return nil, err
	}
	rnet, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		return nil, err
	}
	yk, yn := ynet.GEMMBounds()
	ak, an, _ := anet.GEMMBounds()
	rk, rn := rnet.GEMMBounds()
	defs := []struct {
		span       string
		maxK, maxN int
		image      func(i int) *tensor.Tensor
		forward    func(*tensor.Tensor, *gemm.Runner) (fwdOut, error)
	}{
		{"yolo.forward", yk, yn,
			func(i int) *tensor.Tensor { return yolo.SyntheticScene(ynet.Cfg.InputSize, o.seed*1_000_003+int64(i)) },
			func(img *tensor.Tensor, r *gemm.Runner) (fwdOut, error) {
				res, st, err := ynet.Forward(img, r)
				if err != nil {
					return fwdOut{}, err
				}
				out := fwdOut{hash: hashResult(res)}
				if r != nil {
					out.cycles, out.calls, out.retries = st.Cycles, len(st.Layers), st.Retries
					for _, l := range st.Layers {
						out.waves += waveCount(ynet.Defs[l.Layer].Filters, l.DPUsUsed)
					}
				}
				return out, nil
			}},
		{"alexnet.forward", ak, an,
			func(int) *tensor.Tensor { return randomImage(rng, anet.Cfg.InputSize) },
			func(img *tensor.Tensor, r *gemm.Runner) (fwdOut, error) {
				logits, st, err := anet.Forward(img, r)
				if err != nil {
					return fwdOut{}, err
				}
				out := fwdOut{hash: hashLogits(logits)}
				if r != nil {
					out.cycles, out.calls, out.retries = st.Cycles, len(st.Layers), st.Retries
					for _, l := range st.Layers {
						out.waves += waveCount(anet.Defs[l.Layer].Filters, l.DPUsUsed)
					}
				}
				return out, nil
			}},
		{"resnet.forward", rk, rn,
			func(int) *tensor.Tensor { return randomImage(rng, rnet.Cfg.InputSize) },
			func(img *tensor.Tensor, r *gemm.Runner) (fwdOut, error) {
				logits, st, err := rnet.Forward(img, r)
				if err != nil {
					return fwdOut{}, err
				}
				out := fwdOut{hash: hashLogits(logits)}
				if r != nil {
					out.cycles, out.calls, out.retries = st.Cycles, len(st.Layers), st.Retries
					for _, l := range st.Layers {
						out.waves += waveCount(rnet.Defs[l.Layer].Filters, l.DPUsUsed)
					}
				}
				return out, nil
			}},
	}
	for _, d := range defs {
		n := &rowsNet{span: d.span, forward: d.forward}
		s.nets = append(s.nets, n)
		n.sys, err = host.NewSystem(rowsDPUs, host.DefaultConfig(dpu.O3))
		if err != nil {
			s.close()
			return nil, err
		}
		n.r, err = gemm.NewRunner(n.sys, gemm.RunnerConfig{MaxK: d.maxK, MaxN: d.maxN, Planner: plan.New(n.sys)})
		if err != nil {
			s.close()
			return nil, err
		}
		for i := 0; i < pool; i++ {
			img := d.image(i)
			ref, err := d.forward(img, nil)
			if err != nil {
				s.close()
				return nil, err
			}
			n.pool, n.want = append(n.pool, img), append(n.want, ref.hash)
		}
	}
	// The transfer replays use a symbol of the harness's own on the
	// yolo system, sized for the largest B matrix a layer broadcasts.
	ysys := s.nets[0].sys
	if err := ysys.AllocMRAM(rungBuf, int64(pad8(yk*pad4(yn)*2))); err != nil {
		s.close()
		return nil, err
	}
	if s.xfer, err = ysys.Resolve(rungBuf); err != nil {
		s.close()
		return nil, err
	}
	inst := &instance{
		clients: 1,
		items:   len(s.nets),
		op:      func(_, i int, sp spanCtx) error { return s.forwardAll(i, sp) },
		sim: func() (simCounters, error) {
			c := s.acc
			for _, n := range s.nets {
				x := n.sys.TransferStats()
				c.xferBytes += float64(x.Bytes)
				c.xferOps += float64(x.Transfers)
			}
			return c, nil
		},
		layers: s.layers,
		close:  s.close,
	}
	// Warm-up is one operation per pool image, so every pool input's DPU
	// result has been held against its host reference before timing.
	if err := warmUp(inst, pool); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

func (s *rowsState) close() {
	for _, n := range s.nets {
		if n.sys != nil {
			n.sys.Close()
			n.sys = nil
		}
	}
}

// forwardAll is one operation: pool image i through each network.
func (s *rowsState) forwardAll(i int, sp spanCtx) error {
	calls := 0
	for _, n := range s.nets {
		j := i % len(n.pool)
		id := sp.begin(n.span)
		out, err := n.forward(n.pool[j], n.r)
		sp.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", n.span, err)
		}
		s.acc.cycles += float64(out.cycles)
		s.acc.waves += float64(out.waves)
		s.acc.retries += float64(out.retries)
		calls += out.calls
		if out.hash != n.want[j] {
			return fmt.Errorf("%s: image %d differs from the host reference", n.span, j)
		}
		if n.cycles == 0 {
			n.cycles = out.cycles
		}
		if out.cycles != n.cycles {
			return fmt.Errorf("%s: simulated cycles %d differ from the first forward's %d", n.span, out.cycles, n.cycles)
		}
	}
	s.callsPerOp = calls
	return nil
}

func (s *rowsState) layers(t *traced) error {
	shapes, err := yoloConvShapes(s.ynet)
	if err != nil {
		return err
	}
	y := s.nets[0]
	width := y.sys.NumDPUs()
	rng := rand.New(rand.NewSource(s.o.seed))
	var sz xferSizes
	for _, sh := range shapes {
		sz = xferSizes{max(sz.push, pad8(sh.k*2)), max(sz.gather, pad4(sh.n)*2), max(sz.broadcast, sh.k*pad4(sh.n)*2)}
	}
	push, gather, bcast := perDPUBufs(width, sz.push), perDPUBufs(width, sz.gather), perDPUBufs(1, sz.broadcast)[0]
	params := make([]byte, 24)

	parents := t.rec.pick(y.span, rowsReplays)
	for _, parent := range parents {
		op := parent.Op
		for _, sh := range shapes {
			a, b := seededInt16(rng, sh.m*sh.k), seededInt16(rng, sh.k*sh.n)
			var st gemm.Stats
			var rerr error
			var mul int
			// The GEMM the network issued for this layer.
			t.rec.replay("gemm.multiply", parent.ID, op, func(id int) {
				mul = id
				_, st, rerr = y.r.Multiply(sh.m, sh.n, sh.k, 1, a, b)
			})
			if rerr != nil {
				return fmt.Errorf("replay layer %d: %w", sh.layer, rerr)
			}
			// Below it, the kernel launches: the DPUs still hold the
			// operands the last wave staged, so relaunching interprets
			// the same kernel over the same shapes.
			last := sh.m - (st.Waves-1)*st.DPUsUsed
			t.rec.replay("dpu.kernel", mul, op, func(int) {
				for w := 0; w < st.Waves && rerr == nil; w++ {
					n := st.DPUsUsed
					if w == st.Waves-1 {
						n = last
					}
					_, rerr = y.sys.LaunchOn(n, st.Tasklets, y.r.Kernel())
				}
			})
			if rerr != nil {
				return fmt.Errorf("relaunch layer %d: %w", sh.layer, rerr)
			}
			// And its transfers, byte for byte, on the harness's symbol:
			// B and the parameter block broadcast, then per wave the A
			// rows pushed and the C rows gathered.
			rowB, cB, bB := pad8(sh.k*2), pad4(sh.n)*2, sh.k*pad4(sh.n)*2
			t.rec.replay("host.xfer", mul, op, func(int) {
				rerr = y.sys.CopyToSymbolRef(s.xfer, 0, bcast[:bB])
				if rerr == nil {
					rerr = y.sys.CopyToSymbolRef(s.xfer, 0, params)
				}
				for w := 0; w < st.Waves && rerr == nil; w++ {
					n := st.DPUsUsed
					if w == st.Waves-1 {
						n = last
					}
					for i := range push {
						push[i] = push[i][:rowB]
					}
					if rerr = y.sys.PushXferRef(s.xfer, 0, push); rerr != nil {
						break
					}
					for i := 0; i < n; i++ {
						gather[i] = gather[i][:cB]
					}
					rerr = y.sys.GatherXferRefInto(s.xfer, 0, cB, gather[:n])
				}
			})
			if rerr != nil {
				return fmt.Errorf("transfer replay layer %d: %w", sh.layer, rerr)
			}
		}
	}

	ix := indexSpans(t.rec.spans)
	var mulMS, selfMS, gemmSelf, kernMS, kernShare []float64
	for _, parent := range parents {
		d := nsToMS(parent.dur())
		mulMS = append(mulMS, ix.childSumMS(parent.ID, "gemm.multiply"))
		selfMS = append(selfMS, ix.selfMS(parent.ID))
		var gs float64
		for _, k := range ix.kids[parent.ID] {
			gs += ix.selfMS(k)
		}
		gemmSelf = append(gemmSelf, gs)
		k := ix.grandchildSumMS(parent.ID, "dpu.kernel")
		kernMS, kernShare = append(kernMS, k), append(kernShare, k/d)
	}
	for _, n := range s.nets {
		t.set(n.span+"_ms", median(ix.durMS(n.span)))
	}
	t.set("yolo.self_ms_rows", median(selfMS))
	t.set("gemm.multiply_ms_rows", median(mulMS))
	t.set("gemm.self_ms_rows", median(gemmSelf))
	t.set("gemm.calls_per_op", float64(s.callsPerOp))
	t.set("dpu.kernel_ms_rows", median(kernMS))
	t.set("dpu.kernel_share_rows", median(kernShare))

	maxK, _ := s.ynet.GEMMBounds()
	planRungs(t, y.sys, shapes, plan.GEMMOptions{MaxK: maxK})
	if err := hostRungs(t, "64", width, plan.FixedTasklets, sz, true); err != nil {
		return err
	}
	return dpuRungs(t)
}
