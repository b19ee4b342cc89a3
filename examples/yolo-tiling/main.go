// yolo-tiling: the thesis's chapter 4.2 workload — one synthetic scene
// through a 75-conv-layer quantized YOLOv3, every convolution lowered to
// an Algorithm 2 GEMM and spread one output row per DPU (Fig 4.6). The
// DPU result is verified bit-exactly against the host reference.
package main

import (
	"fmt"
	"log"
	"slices"

	"pimdnn"
	"pimdnn/internal/yolo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := pimdnn.YOLOConfig{InputSize: 64, Classes: 4, WidthDiv: 32, Seed: 1}
	net, err := yolo.New(cfg)
	if err != nil {
		return err
	}
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 16, Opt: pimdnn.O3})
	if err != nil {
		return err
	}
	// The WRAM-tiled (improved, §4.3.4) kernel at 11 tasklets.
	runner, err := acc.Deploy(net.Network, false)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d layers, %.3g MACs, input %dx%d\n",
		len(net.Defs), float64(net.MACs()), cfg.InputSize, cfg.InputSize)

	img := pimdnn.SyntheticScene(cfg.InputSize, 42)
	res, stats, err := net.Forward(img, runner)
	if err != nil {
		return err
	}
	fmt.Printf("DPU inference: %.4g s over %d conv layers (max layer %.4g s)\n",
		stats.Seconds, len(stats.Layers), stats.MaxLayerSeconds())
	fmt.Printf("detections: %d\n", len(res.Detections))
	for i, d := range res.Detections {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  class %d at (%.0f, %.0f) %vx%v conf %.2f\n",
			d.Class, d.X, d.Y, int(d.W), int(d.H), d.Confidence)
	}

	// Verify against the host reference.
	hostRes, _, err := net.Forward(img, nil)
	if err != nil {
		return err
	}
	for s, h := range hostRes.YoloOutputs {
		if !slices.Equal(h.Data, res.YoloOutputs[s].Data) {
			return fmt.Errorf("scale %d: DPU output differs from the host reference", s)
		}
	}
	fmt.Println("DPU output verified bit-exact against the host reference")

	// The thesis's headline: the full 416x416 network on the 2,560-DPU
	// system, estimated analytically with the MRAM-bound kernel.
	total, err := pimdnn.EstimateYOLOSeconds(pimdnn.YOLOFull(), true /* naive kernel */)
	if err != nil {
		return err
	}
	fmt.Printf("\nfull YOLOv3-416 on 2,560 DPUs (thesis-faithful kernel): %.1f s/image (paper: 65 s)\n", total)
	return nil
}
