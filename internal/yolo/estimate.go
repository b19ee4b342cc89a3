package yolo

import (
	"fmt"

	"pimdnn/internal/dpu"
	"pimdnn/internal/model"
	"pimdnn/internal/plan"
)

// EstimateConfig parameterizes the analytic latency estimate.
type EstimateConfig struct {
	Opt      dpu.OptLevel
	Tasklets int
	// DPUs is the system size available to the row-per-DPU mapping.
	DPUs int
	// TileCols matches the GEMM runner's tile width (tiled kernel).
	TileCols int
	// Naive selects the thesis-faithful kernel with MRAM-resident ctmp
	// (see gemm.RunnerConfig.Naive).
	Naive bool
	// FrequencyHz is the DPU clock.
	FrequencyHz float64
}

// DefaultEstimateConfig mirrors the thesis's measured configuration:
// threading + O3 on the 2,560-DPU system running its own (MRAM-bound)
// kernel (§4.3.1). The mapping constants come from plan.Fixed — the
// same hand-tuned source of truth every network deployment falls back
// to when the auto-mapper is off.
func DefaultEstimateConfig() EstimateConfig {
	return EstimateConfig{
		Opt:         dpu.O3,
		Tasklets:    plan.FixedTasklets,
		DPUs:        dpu.SystemDPUs,
		TileCols:    plan.FixedTileCols,
		Naive:       true,
		FrequencyHz: dpu.DefaultFrequencyHz,
	}
}

// EstimateSeconds computes the single-image inference latency of the
// network analytically, layer by layer. The per-wave cycle counts come
// from model.GEMMRowCycles — the same kernel-exact cost functions the
// auto-mapper (internal/plan) ranks candidate mappings with — so this
// is a thin wrapper: the GEMM shapes come from the shared graph, the
// wave arithmetic is here, the charge structure there. It exists because the full 416×416 YOLOv3
// (~33 GMACs) is too large to simulate operation-by-operation; on
// networks small enough to run both ways the estimate tracks the
// simulator within a few percent (verified in tests).
//
// The thesis's measured best case is 65 s per image with a ~6 s max layer
// (§4.3.1); the Naive estimate reproduces that order for the full
// configuration.
func (n *Network) EstimateSeconds(ec EstimateConfig) (total float64, perLayer []float64, err error) {
	if ec.Tasklets < 1 || ec.Tasklets > dpu.MaxTasklets {
		return 0, nil, fmt.Errorf("yolo: estimate tasklets %d outside 1..%d", ec.Tasklets, dpu.MaxTasklets)
	}
	if ec.DPUs < 1 || ec.TileCols < 4 || ec.FrequencyHz <= 0 {
		return 0, nil, fmt.Errorf("yolo: bad estimate config %+v", ec)
	}
	kc := model.KernelConfig{
		Opt:      ec.Opt,
		Tasklets: ec.Tasklets,
		TileCols: ec.TileCols,
		Naive:    ec.Naive,
	}
	perLayer = make([]float64, 0, 80)
	for i, def := range n.Defs {
		if def.Kind != Conv {
			continue
		}
		m, k, cols := n.GEMMShape(i)
		cycles := model.GEMMRowCycles(cols, k, kc)
		waves := (m + ec.DPUs - 1) / ec.DPUs
		sec := float64(cycles) * float64(waves) / ec.FrequencyHz
		perLayer = append(perLayer, sec)
		total += sec
	}
	return total, perLayer, nil
}

// SizePoint is one sample of the network-size study.
type SizePoint struct {
	InputSize int
	WidthDiv  int
	MACs      int64
	// Seconds is the estimated single-image latency on the full system.
	Seconds float64
	// SecondsPerMAC normalizes latency by work — the efficiency curve
	// that shows where the UPMEM mapping stops paying off.
	SecondsPerMAC float64
	// MeanDPUs is the average number of DPUs the row-per-DPU mapping
	// keeps busy (the mean conv filter count); Utilization divides it
	// by the system size. Small networks leave most of the 2,560 DPUs
	// idle — the §6.1 "where UPMEM starts losing performance" answer.
	MeanDPUs    float64
	Utilization float64
}

// SizeSweep answers the thesis's future-work question "for what network
// size does UPMEM's system start losing performance" (§6.1): it estimates
// the latency of the 75-conv YOLOv3 graph across input resolutions at a
// fixed width divisor.
func SizeSweep(sizes []int, widthDiv int, ec EstimateConfig) ([]SizePoint, error) {
	out := make([]SizePoint, 0, len(sizes))
	for _, s := range sizes {
		cfg := Config{InputSize: s, Classes: 80, WidthDiv: widthDiv, Seed: 1}
		net, err := New(cfg)
		if err != nil {
			return nil, err
		}
		total, _, err := net.EstimateSeconds(ec)
		if err != nil {
			return nil, err
		}
		macs := net.MACs()
		var filters, convs int
		for _, def := range net.Defs {
			if def.Kind == Conv {
				filters += def.Filters
				convs++
			}
		}
		meanDPUs := float64(filters) / float64(convs)
		used := meanDPUs
		if used > float64(ec.DPUs) {
			used = float64(ec.DPUs)
		}
		out = append(out, SizePoint{
			InputSize:     s,
			WidthDiv:      widthDiv,
			MACs:          macs,
			Seconds:       total,
			SecondsPerMAC: total / float64(macs),
			MeanDPUs:      meanDPUs,
			Utilization:   used / float64(ec.DPUs),
		})
	}
	return out, nil
}
