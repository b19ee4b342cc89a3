package ebnn

import (
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/model"
	"pimdnn/internal/plan"
)

// CostShape returns the workload geometry the kernel-granularity cost
// model (model.EBNNWaveCycles) scores eBNN waves with and
// model.EBNNLayout lays the DPU memory out by — this package's layout
// constants, exported as plain numbers so neither model nor plan needs
// to import ebnn.
func CostShape(f int, useLUT bool) model.EBNNShape {
	return model.EBNNShape{
		Filters:     f,
		Cells:       PoolCells,
		Side:        mnist.Side,
		PackedBytes: mnist.PackedSize,
		ResultBytes: ResultSize,
		LUTBytes:    lutWRAMSize,
		UseLUT:      useLUT,
	}
}

// PlanMapping asks the auto-mapper for this model's
// multiple-images-per-DPU mapping over `images` images.
func PlanMapping(p *plan.Planner, m *Model, useLUT bool, images int) plan.Mapping {
	return p.EBNN(CostShape(m.F, useLUT), images, BatchSize)
}

// NewPlannedRunner plans the mapping against the system's topology (for
// full per-DPU batches — the steady-state shape) and deploys with it:
// the mapping's tasklet count replaces the hand-tuned constant
// (plan.FixedEBNNTasklets) the fixed path pins. A nil planner plans
// against sys directly.
func NewPlannedRunner(sys *host.System, m *Model, useLUT bool, p *plan.Planner) (*Runner, plan.Mapping, error) {
	if p == nil {
		p = plan.New(sys)
	}
	mp := PlanMapping(p, m, useLUT, BatchSize*sys.NumDPUs())
	r, err := NewRunner(sys, m, useLUT, mp.Tasklets)
	return r, mp, err
}
