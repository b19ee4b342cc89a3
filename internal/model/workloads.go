package model

import (
	"fmt"
	"sort"
)

// Workload is a CNN inference workload expressed as the chapter 5
// model's inputs: a MAC count and an operand width.
//
// The thesis's future work (§6.1) asks for "alternative CNNs ... from
// AlexNet to ResNet" to be evaluated; this catalog extends the model
// usage of §5.4 to the standard image classifiers plus the two thesis
// workloads.
type Workload struct {
	Name string
	// MACs is the multiply-accumulate count of one inference (the
	// model's TOPs input).
	MACs float64
	// Bits is the operand precision.
	Bits int
}

// Workloads returns the evaluation catalog at 8-bit precision. MAC
// counts are the standard published figures (one inference, single
// crop): LeNet-5 and the thesis's eBNN at the small end, AlexNet as the
// thesis's chapter 5 example, then VGG-16/ResNet-50 and the thesis's
// YOLOv3-416.
func Workloads() []Workload {
	return []Workload{
		{Name: "eBNN", MACs: 4.87e5, Bits: 8},   // 26x26x9x8 binary MACs
		{Name: "LeNet-5", MACs: 4.2e5, Bits: 8}, // classic MNIST CNN
		{Name: "AlexNet", MACs: AlexNetTOPs, Bits: 8},
		{Name: "ResNet-18", MACs: 1.814e9, Bits: 8}, // matches resnet.New(FullConfig()).MACs() (internal/nn.Network.MACs)
		{Name: "ResNet-50", MACs: 4.1e9, Bits: 8},
		{Name: "VGG-16", MACs: 1.55e10, Bits: 8},
		{Name: "YOLOv3-416", MACs: 3.29e10, Bits: 8},
	}
}

// WorkloadResult is one (PIM, workload) evaluation through the full
// generic model (Eq 5.1).
type WorkloadResult struct {
	PIM      string
	Workload string
	MACs     float64
	TcompS   float64
	TmemS    float64
	TtotS    float64
	// FramesPerSec is 1/Ttot.
	FramesPerSec float64
}

// EvaluateWorkloads runs every catalog workload through every §5.2
// architecture.
func EvaluateWorkloads() []WorkloadResult {
	var out []WorkloadResult
	for _, w := range Workloads() {
		for _, p := range Architectures() {
			tcomp := p.Tcomp(p.MACCop(w.Bits), w.MACs)
			tmem := p.Tmem(w.MACs, w.Bits)
			ttot := tcomp + tmem
			out = append(out, WorkloadResult{
				PIM:          p.Name,
				Workload:     w.Name,
				MACs:         w.MACs,
				TcompS:       tcomp,
				TmemS:        tmem,
				TtotS:        ttot,
				FramesPerSec: 1 / ttot,
			})
		}
	}
	return out
}

// BestPIMPerWorkload returns, for each workload, the architecture with
// the lowest total latency — the §6.1 "which network size is best for
// which PIM" question answered by the model.
func BestPIMPerWorkload() map[string]string {
	best := make(map[string]string)
	bestT := make(map[string]float64)
	for _, r := range EvaluateWorkloads() {
		if t, ok := bestT[r.Workload]; !ok || r.TtotS < t {
			bestT[r.Workload] = r.TtotS
			best[r.Workload] = r.PIM
		}
	}
	return best
}

// FormatWorkloads renders the evaluation as a table grouped by workload.
func FormatWorkloads(rs []WorkloadResult) string {
	sorted := append([]WorkloadResult(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].MACs != sorted[j].MACs {
			return sorted[i].MACs < sorted[j].MACs
		}
		return sorted[i].PIM < sorted[j].PIM
	})
	out := fmt.Sprintf("%-12s %-8s %10s %12s %12s %12s %12s\n",
		"workload", "PIM", "MACs", "Tcomp(s)", "Tmem(s)", "Ttot(s)", "frames/s")
	for _, r := range sorted {
		out += fmt.Sprintf("%-12s %-8s %10.3g %12.3g %12.3g %12.3g %12.3g\n",
			r.Workload, r.PIM, r.MACs, r.TcompS, r.TmemS, r.TtotS, r.FramesPerSec)
	}
	return out
}
