package main

import (
	"fmt"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// ebnn_stream: the paper's other CNN. One operation classifies the same
// digits once with the LUT architecture and once with the float one
// (the thesis's Fig 4.4 pair), 16 images per DPU over four waves on a
// 32-DPU system each; one item is one image classification.
var ebnnStream = workload{name: "ebnn_stream", setup: setupEBNN}

const (
	ebnnDPUs     = 32
	ebnnTasklets = 16
	ebnnWaves    = 4
	ebnnWarmups  = 3
)

type ebnnState struct {
	imgs    []mnist.Image
	want    []int // Model.Predict per image
	runners [2]*ebnn.Runner
	systems [2]*host.System
	cycles  [2]uint64
	acc     simCounters
}

var ebnnSpanNames = [2]string{"ebnn.lut_infer", "ebnn.float_infer"}

func setupEBNN(o options) (*instance, error) {
	dpus, train := ebnnDPUs, 400
	if o.smoke {
		dpus, train = 2, 100
	}
	ds := mnist.Load(train, 256, o.seed)
	m, err := ebnn.Train(ds, ebnn.DefaultTrainConfig())
	if err != nil {
		return nil, err
	}
	s := &ebnnState{imgs: make([]mnist.Image, dpus*ebnn.BatchSize*ebnnWaves)}
	s.want = make([]int, len(s.imgs))
	for i := range s.imgs {
		s.imgs[i] = ds.Test[i%len(ds.Test)]
		s.want[i] = m.Predict(&s.imgs[i])
	}
	for i, useLUT := range []bool{true, false} {
		s.systems[i], err = host.NewSystem(dpus, host.DefaultConfig(dpu.O3))
		if err != nil {
			s.close()
			return nil, err
		}
		s.runners[i], err = ebnn.NewRunner(s.systems[i], m, useLUT, ebnnTasklets)
		if err != nil {
			s.close()
			return nil, err
		}
	}
	inst := &instance{
		clients: 1,
		items:   2 * len(s.imgs),
		op:      func(_, _ int, sp spanCtx) error { return s.classify(sp) },
		sim: func() (simCounters, error) {
			c := s.acc
			for _, sys := range s.systems {
				x := sys.TransferStats()
				c.xferBytes += float64(x.Bytes)
				c.xferOps += float64(x.Transfers)
			}
			return c, nil
		},
		layers: func(t *traced) error {
			ix := indexSpans(t.rec.spans)
			lut, flt := median(ix.durMS(ebnnSpanNames[0])), median(ix.durMS(ebnnSpanNames[1]))
			t.set("ebnn.lut_infer_ms", lut)
			t.set("ebnn.float_infer_ms", flt)
			t.set("ebnn.float_over_lut", ratio(flt, lut))
			t.set("ebnn.waves_per_op", t.win.sim.waves/float64(t.win.attempted))
			softfloatRungs(t, o.seed)
			return nil
		},
		close: s.close,
	}
	// Every operation classifies every digit, so the warm-up is the gate.
	warm := ebnnWarmups
	if o.smoke {
		warm = 1
	}
	if err := warmUp(inst, warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

func (s *ebnnState) close() {
	for i, sys := range s.systems {
		if sys != nil {
			sys.Close()
			s.systems[i] = nil
		}
	}
}

// classify is one operation: every digit through both runners, each
// prediction checked against the host model's.
func (s *ebnnState) classify(sp spanCtx) error {
	for i, r := range s.runners {
		id := sp.begin(ebnnSpanNames[i])
		preds, st, err := r.Infer(s.imgs)
		sp.end(id)
		if err != nil {
			return err
		}
		s.acc.cycles += float64(st.Cycles)
		s.acc.waves += float64(st.Waves)
		s.acc.retries += float64(st.Retries)
		for j, p := range preds {
			if p != s.want[j] {
				return fmt.Errorf("%s: image %d classified %d, host model says %d", ebnnSpanNames[i], j, p, s.want[j])
			}
		}
		if s.cycles[i] == 0 {
			s.cycles[i] = st.Cycles
		}
		if st.Cycles != s.cycles[i] {
			return fmt.Errorf("%s: simulated cycles %d differ from the first run's %d", ebnnSpanNames[i], st.Cycles, s.cycles[i])
		}
	}
	return nil
}
