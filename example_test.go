package pimdnn_test

import (
	"fmt"

	"pimdnn"
)

// ExampleNewAccelerator shows the minimal eBNN deployment flow: train on
// the host, deploy with the LUT architecture, classify on the simulated
// DPUs.
func ExampleNewAccelerator() {
	ds := pimdnn.LoadDigits(300, 10, 1)
	cfg := pimdnn.DefaultEBNNTrainConfig()
	cfg.Epochs = 10
	model, err := pimdnn.TrainEBNN(ds, cfg)
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 1, Opt: pimdnn.O3})
	if err != nil {
		fmt.Println("alloc:", err)
		return
	}
	runner, err := acc.DeployEBNN(model, true, 16)
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	preds, _, err := runner.Infer(ds.Test)
	if err != nil {
		fmt.Println("classify:", err)
		return
	}
	fmt.Println("classified", len(preds), "digits")
	// Output: classified 10 digits
}

// ExampleChooseScheme shows the mapping-scheme decision the thesis's two
// CNNs motivate.
func ExampleChooseScheme() {
	fmt.Println("eBNN (304 B):", pimdnn.ChooseScheme(304, 16))
	fmt.Println("YOLOv3 (692 KB):", pimdnn.ChooseScheme(692<<10, 11))
	// Output:
	// eBNN (304 B): multi-image-per-DPU
	// YOLOv3 (692 KB): multi-DPU-per-image
}

// ExamplePIMArchitectures prices AlexNet on the three chapter 5 models.
func ExamplePIMArchitectures() {
	for _, p := range pimdnn.PIMArchitectures() {
		fmt.Printf("%s: Cop(8-bit MAC) = %g cycles\n", p.Name, p.MACCop(8))
	}
	// Output:
	// pPIM: Cop(8-bit MAC) = 8 cycles
	// DRISA: Cop(8-bit MAC) = 211 cycles
	// UPMEM: Cop(8-bit MAC) = 88 cycles
}

// ExampleEstimateYOLOSeconds reproduces the §4.3.1 headline estimate.
func ExampleEstimateYOLOSeconds() {
	naive, err := pimdnn.EstimateYOLOSeconds(pimdnn.YOLOFull(), true)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("full YOLOv3, thesis-faithful kernel: %.0f s/image (paper: 65 s)\n", naive)
	// Output: full YOLOv3, thesis-faithful kernel: 33 s/image (paper: 65 s)
}
