// cnn-zoo: the §6.1 future-work span made concrete — run all three
// implemented classifier-style workloads (eBNN, AlexNet, ResNet-18) on
// simulated UPMEM systems and compare their DPU time, energy and the
// chapter 5 model's pricing of their full-size counterparts. Every
// deployment lets the cost-model auto-mapper choose its mapping
// (tasklets 0 / Deploy's autoMap) instead of pinning hand-tuned constants.
package main

import (
	"fmt"
	"log"

	"pimdnn"
	"pimdnn/internal/alexnet"
	"pimdnn/internal/model"
	"pimdnn/internal/nn"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("workload          input   MACs (lite)   DPU time    notes")

	// eBNN: 16 digits on one DPU with the LUT architecture.
	ds := pimdnn.LoadDigits(400, 16, 1)
	ebnnModel, err := pimdnn.TrainEBNN(ds, pimdnn.DefaultEBNNTrainConfig())
	if err != nil {
		return err
	}
	acc1, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 1, Opt: pimdnn.O3})
	if err != nil {
		return err
	}
	ebnnRunner, err := acc1.DeployEBNN(ebnnModel, true, 0) // 0 = auto-map
	if err != nil {
		return err
	}
	_, ebnnStats, err := ebnnRunner.Infer(ds.Test)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %6d   %11s   %8.3gs   16 images, 1 DPU\n",
		"eBNN", 28, "~4.9e5", ebnnStats.Seconds)

	// AlexNet and ResNet-18 lite, row-per-DPU on 8 DPUs each.
	alex, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		return err
	}
	res, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		return err
	}
	for i, w := range []struct {
		name, notes string
		g           *nn.Network
		size        int
	}{
		{"AlexNet", "8 DPUs, row-per-DPU", alex.Network, alex.Cfg.InputSize},
		{"ResNet-18", "8 DPUs, 21 GEMMs incl. 3 projections", res.Network, res.Cfg.InputSize},
	} {
		acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 8, Opt: pimdnn.O3})
		if err != nil {
			return err
		}
		runner, err := acc.Deploy(w.g, true)
		if err != nil {
			return err
		}
		_, stats, err := w.g.Forward(tensor.Random(w.size, int64(i+2)), runner)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %6d   %11.3g   %8.3gs   %s\n", w.name, w.size, float64(w.g.MACs()), stats.Seconds, w.notes)
	}

	// Full-size pricing through the chapter 5 model.
	fmt.Println("\nchapter 5 model, full-size networks at 8-bit (Ttot = Tcomp + Tmem):")
	fmt.Printf("%-12s", "workload")
	for _, p := range pimdnn.PIMArchitectures() {
		fmt.Printf("%12s", p.Name)
	}
	fmt.Println()
	for _, w := range model.Workloads() {
		fmt.Printf("%-12s", w.Name)
		for _, p := range pimdnn.PIMArchitectures() {
			fmt.Printf("%12.3g", p.Ttot(w.MACs, w.Bits))
		}
		fmt.Println()
	}
	return nil
}
