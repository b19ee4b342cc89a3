// Quickstart: train an eBNN digit classifier on the host, deploy it to a
// simulated UPMEM system with the LUT architecture, and classify a batch
// of digits on the DPUs.
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
	// Generate a deterministic synthetic digit dataset and train the
	// network on the host (binary conv filters + batch-norm statistics
	// + softmax readout).
	ds := pimdnn.LoadDigits(500 /* train */, 32 /* test */, 1 /* seed */)
	model, err := pimdnn.TrainEBNN(ds, pimdnn.DefaultEBNNTrainConfig())
	if err != nil {
		return err
	}

	// Allocate a 4-DPU slice of the simulated UPMEM system at -O3 and
	// deploy with the host-built BN-BinAct lookup table (thesis
	// Fig 4.2b), 16 tasklets per DPU.
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 4, Opt: pimdnn.O3})
	if err != nil {
		return err
	}
	runner, err := acc.DeployEBNN(model, true /* useLUT */, 16)
	if err != nil {
		return err
	}

	preds, stats, err := runner.Infer(ds.Test)
	if err != nil {
		return err
	}
	correct := 0
	for i := range ds.Test {
		if preds[i] == ds.Test[i].Label {
			correct++
		}
	}
	fmt.Printf("classified %d digits on %d DPUs in %.4g s of DPU time\n",
		stats.Images, stats.DPUsUsed, stats.Seconds)
	fmt.Printf("accuracy: %d/%d (%.1f%%)\n",
		correct, len(ds.Test), 100*float64(correct)/float64(len(ds.Test)))
	fmt.Printf("throughput: %.0f images/s\n", stats.Throughput())
	return nil
}
