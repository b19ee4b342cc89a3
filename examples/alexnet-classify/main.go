// alexnet-classify: the §6.1 extension workload — a quantized AlexNet
// whose conv and FC layers run as Algorithm 2 GEMMs on the simulated
// UPMEM system. It also cross-checks the implementation against the
// chapter 5 analytic model's AlexNet pricing (Table 5.1).
package main

import (
	"fmt"
	"log"

	"pimdnn"
	"pimdnn/internal/alexnet"
	"pimdnn/internal/model"
	"pimdnn/internal/nn"
	"pimdnn/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 16, Opt: pimdnn.O3})
	if err != nil {
		return err
	}
	cfg := pimdnn.AlexNetLite()
	net, err := alexnet.New(cfg)
	if err != nil {
		return err
	}
	runner, err := acc.Deploy(net.Network, false)
	if err != nil {
		return err
	}
	fmt.Printf("AlexNet (input %d, width÷%d): %.3g MACs (full 227x227: %.3g)\n",
		cfg.InputSize, cfg.WidthDiv, float64(net.MACs()), 1.135e9)

	// A random image through the DPU pipeline.
	logits, stats, err := net.Forward(tensor.Random(cfg.InputSize, 7), runner)
	if err != nil {
		return err
	}
	fmt.Printf("classified as %d (of %d classes) in %.4g s of DPU time over %d GEMM layers\n",
		nn.Argmax(logits), len(logits), stats.Seconds, len(stats.Layers))

	// The chapter 5 model prices the same workload analytically.
	fmt.Println("\nchapter 5 model on full AlexNet (8-bit, Table 5.1 + 5.3):")
	for _, p := range pimdnn.PIMArchitectures() {
		fmt.Printf("  %-6s Ttot = %.3g s (%.1f frames/s)\n",
			p.Name, p.Ttot(model.AlexNetTOPs, 8), 1/p.Ttot(model.AlexNetTOPs, 8))
	}
	return nil
}
