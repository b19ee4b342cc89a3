// ebnn-mnist: the thesis's chapter 4.1 workload end to end — batch digit
// classification with the multiple-images-per-DPU mapping, comparing the
// floating-point and LUT DPU architectures and consulting the framework's
// advisor for the §4.3.3 takeaways.
package main

import (
	"fmt"
	"log"

	"pimdnn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds := pimdnn.LoadDigits(600, 96, 7)
	model, err := pimdnn.TrainEBNN(ds, pimdnn.DefaultEBNNTrainConfig())
	if err != nil {
		return err
	}

	// The mapping chooser confirms eBNN's tiny working set batches many
	// images into each DPU (thesis §4.1.3).
	scheme := pimdnn.ChooseScheme(304 /* packed image + result */, 16)
	fmt.Printf("chosen mapping scheme: %v\n\n", scheme)

	for _, useLUT := range []bool{false, true} {
		// Compile the float model at -O0 to expose the subroutine
		// problem the LUT architecture solves.
		opt := pimdnn.O0
		acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 6, Opt: opt})
		if err != nil {
			return err
		}
		runner, err := acc.DeployEBNN(model, useLUT, 16)
		if err != nil {
			return err
		}
		preds, stats, err := runner.Infer(ds.Test)
		if err != nil {
			return err
		}
		correct := 0
		for i := range preds {
			if preds[i] == ds.Test[i].Label {
				correct++
			}
		}
		name := "default (float in DPU)"
		if useLUT {
			name = "LUT architecture"
		}
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("accuracy %.1f%%, DPU time %.4g s, %.0f images/s\n",
			100*float64(correct)/float64(len(preds)), stats.Seconds, stats.Throughput())

		// Ask the advisor what the run profile implies.
		recs := pimdnn.NewAdvisor().Analyze(pimdnn.RunInfo{
			Profile:  acc.System().Profile(),
			Tasklets: 16,
			Opt:      opt,
		})
		if len(recs) == 0 {
			fmt.Println("advisor: no findings")
		}
		for _, r := range recs {
			fmt.Printf("advisor [%s]: %s\n", r.Rule, r.Detail)
		}
		fmt.Println()
	}
	return nil
}
