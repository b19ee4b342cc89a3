// Command ebnn-infer runs the chapter 4.1 experiments: eBNN digit
// classification on the simulated UPMEM system with the
// multiple-images-per-DPU mapping, comparing the default floating-point
// architecture (Fig 4.2a) against the LUT architecture (Fig 4.2b) and
// sweeping tasklets and DPU counts (Figs 4.3, 4.4, 4.7a, 4.7c).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/model"
	"pimdnn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebnn-infer:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ebnn-infer", flag.ExitOnError)
	var (
		dpus     = fs.Int("dpus", 4, "DPUs to allocate")
		tasklets = fs.Int("tasklets", 16, "tasklets per DPU")
		images   = fs.Int("images", 64, "test images to classify")
		train    = fs.Int("train", 500, "training images")
		optFlag  = fs.Int("O", 0, "optimization level 0-3")
		sweep    = fs.Bool("sweep", false, "run the tasklet and DPU-count sweeps")
	)
	fs.Parse(args)
	opt := dpu.OptLevel(*optFlag)
	if *images < 1 || *train < 1 {
		return fmt.Errorf("-images %d -train %d: both must be positive", *images, *train)
	}

	fmt.Fprintln(w, "training eBNN on synthetic digits...")
	ds := mnist.Load(*train, *images, 11)
	m, err := ebnn.Train(ds, ebnn.DefaultTrainConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host accuracy: train %.1f%%, test %.1f%%\n\n",
		m.Accuracy(ds.Train)*100, m.Accuracy(ds.Test)*100)

	// Fig 4.3 / 4.4: LUT vs default architecture on one DPU, 16 images.
	batch := ds.Test
	if len(batch) > 16 {
		batch = batch[:16]
	}
	type outcome struct {
		cycles   uint64
		seconds  float64
		correct  int
		floatOcc int
		prof     *trace.Profile
	}
	runArch := func(useLUT bool, nDPU, ntl int, imgs []mnist.Image) (outcome, error) {
		sys, err := host.NewSystem(nDPU, host.DefaultConfig(opt))
		if err != nil {
			return outcome{}, err
		}
		r, err := ebnn.NewRunner(sys, m, useLUT, ntl)
		if err != nil {
			return outcome{}, err
		}
		preds, st, err := r.Infer(imgs)
		if err != nil {
			return outcome{}, err
		}
		var o outcome
		o.cycles, o.seconds = st.Cycles, st.Seconds
		for i := range imgs {
			if preds[i] == imgs[i].Label {
				o.correct++
			}
		}
		o.floatOcc = len(sys.Profile().FloatSubroutines())
		o.prof = sys.Profile()
		return o, nil
	}

	withFloat, err := runArch(false, 1, *tasklets, batch)
	if err != nil {
		return err
	}
	withLUT, err := runArch(true, 1, *tasklets, batch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig 4.3: subroutine change from the LUT architecture ==\n")
	fmt.Fprintf(w, "float subroutine kinds: %d -> %d\n", withFloat.floatOcc, withLUT.floatOcc)
	fmt.Fprint(w, trace.FormatDiff(trace.Diff(withFloat.prof, withLUT.prof)))
	fmt.Fprintln(w)

	fmt.Fprintf(w, "== Fig 4.4: 16-image completion time ==\n")
	fmt.Fprintf(w, "default (float in DPU): %d cycles = %.4g s\n", withFloat.cycles, withFloat.seconds)
	fmt.Fprintf(w, "LUT architecture:       %d cycles = %.4g s\n", withLUT.cycles, withLUT.seconds)
	fmt.Fprintf(w, "LUT speedup: %.2fx (paper: 1.4x)\n\n", float64(withFloat.cycles)/float64(withLUT.cycles))

	// Headline batch on the requested system.
	all, err := runArch(true, *dpus, *tasklets, ds.Test)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== batch inference: %d images, %d DPUs, %d tasklets, %v ==\n",
		len(ds.Test), *dpus, *tasklets, opt)
	fmt.Fprintf(w, "DPU accuracy %.1f%%, DPU time %.4g s, per-image %.4g s (paper single-DPU: 1.48e-3 s)\n\n",
		float64(all.correct)/float64(len(ds.Test))*100, all.seconds,
		all.seconds/float64((len(ds.Test)+15)/16*16/16)/16)

	if !*sweep {
		return nil
	}

	fmt.Fprintf(w, "== Fig 4.7(a): tasklet speedup (16 images, LUT, 1 DPU) ==\n")
	var base uint64
	for _, ntl := range []int{1, 2, 4, 8, 11, 12, 16, 20, 24} {
		o, err := runArch(true, 1, ntl, batch)
		if err != nil {
			return err
		}
		if ntl == 1 {
			base = o.cycles
		}
		fmt.Fprintf(w, "%2d tasklets: %10d cycles, speedup %.2f\n",
			ntl, o.cycles, float64(base)/float64(o.cycles))
	}

	fmt.Fprintf(w, "\n== Fig 4.7(c): speedup vs CPU for increasing DPU counts ==\n")
	one, err := runArch(true, 1, *tasklets, batch)
	if err != nil {
		return err
	}
	perImageDPU := one.seconds / float64(len(batch))
	cpu := model.Xeon()
	series := cpu.SpeedupSeries(perImageDPU, ebnnCPUOps(m), []int{1, 4, 16, 64, 256, 1024, 2560})
	for _, pt := range series {
		fmt.Fprintf(w, "%5.0f DPUs: speedup %8.2fx over %s\n", pt.X, pt.Cycles, cpu.Name)
	}
	return nil
}

// ebnnCPUOps estimates the host-CPU operations for one eBNN inference
// (binary conv + pool + activation + readout).
func ebnnCPUOps(m *ebnn.Model) float64 {
	conv := float64(ebnn.ConvSize * ebnn.ConvSize * m.F * 12)
	pool := float64(ebnn.PoolCells * m.F * 4)
	read := float64(m.FeatureLen() * mnist.NumClasses)
	return conv + pool + read
}
