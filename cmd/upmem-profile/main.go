// Command upmem-profile is the dispatch tooling around the execution
// engine: by default it dispatches a demo GEMM under a request trace and
// renders its wave spans as a wall-clock Gantt chart (-json: the spans
// as JSON), -perfetto writes that trace's span tree as Chrome trace-event
// JSON, and -calibrate holds the auto-mapper's per-layer predictions
// against simulated latency. The thesis's chapter 3 characterization
// (Table 3.1, Eq 3.4, Fig 3.1) is reproduced by cmd/experiments, E2/E3.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pimdnn/internal/core"
	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "upmem-profile:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("upmem-profile", flag.ExitOnError)
	optFlag := fs.Int("O", 0, "optimization level 0-3 (dpu-clang -O flag)")
	jsonFlag := fs.Bool("json", false,
		"emit the demo GEMM's wave spans (or, with -calibrate, the calibration report) as one JSON document instead of text")
	calibrateFlag := fs.Bool("calibrate", false,
		"run the auto-mapper calibration loop: execute every network with planner-chosen mappings and compare predicted vs simulated latency per layer")
	dpusFlag := fs.Int("dpus", 64, "system size for -calibrate")
	perfettoFlag := fs.String("perfetto", "",
		"write the traced demo GEMM's span tree — waves, per-DPU kernels — to this file as Chrome trace-event (Perfetto) JSON instead of charting it")
	fs.Parse(args)
	opt := dpu.OptLevel(*optFlag)
	if opt < dpu.O0 || opt > dpu.O3 {
		return fmt.Errorf("-O %d: optimization level must be 0-3", *optFlag)
	}
	if *calibrateFlag {
		return runCalibrate(w, opt, *dpusFlag, *jsonFlag)
	}
	if *perfettoFlag != "" {
		return runPerfetto(w, opt, *perfettoFlag)
	}
	tr, err := runTracedGEMM(opt)
	if err != nil {
		return err
	}
	if *jsonFlag {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Opt      string           `json:"opt"`
			Workload string           `json:"timeline_workload"`
			Timeline []trace.WaveSpan `json:"timeline"`
		}{fmt.Sprint(opt), demoGEMM, tr.WaveSpans()})
	}
	fmt.Fprintln(w, "== Execution engine: wave timeline (wall clock) ==")
	fmt.Fprintln(w, demoGEMM)
	fmt.Fprint(w, trace.Render(tr.WaveSpans(), 64))
	return nil
}

// The one workload behind the timeline and -perfetto: 3 waves of 8
// row-shards.
const demoM, demoN, demoK, demoDPUs = 24, 32, 16, 8

var demoGEMM = fmt.Sprintf("%d x %d x %d GEMM, %d DPUs", demoM, demoN, demoK, demoDPUs)

// runPerfetto exports the demo GEMM's request span tree (waves, per-DPU
// kernel spans) for chrome://tracing /
// ui.perfetto.dev. The file is created only once the run has succeeded.
func runPerfetto(w io.Writer, opt dpu.OptLevel, path string) error {
	tr, err := runTracedGEMM(opt)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, tr); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote span tree (%s, %d spans) to %s\n", demoGEMM, len(tr.Spans()), path)
	return nil
}

// runTracedGEMM dispatches the demo GEMM with a request trace attached
// to the runner and returns the completed trace: the one record the
// Gantt chart, the JSON "timeline" and the Perfetto export all read.
func runTracedGEMM(opt dpu.OptLevel) (*trace.Trace, error) {
	const m, n, k, dpus = demoM, demoN, demoK, demoDPUs
	sys, err := host.NewSystem(dpus, host.DefaultConfig(opt))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16})
	if err != nil {
		return nil, err
	}
	tracer := trace.NewTracer(trace.TracerConfig{})
	root := tracer.StartTrace("profile_gemm")
	r.SetTraceSpan(root)
	rng := rand.New(rand.NewSource(1))
	a := make([]int16, m*k)
	b := make([]int16, k*n)
	for i := range a {
		a[i] = int16(rng.Intn(64) - 32)
	}
	for i := range b {
		b[i] = int16(rng.Intn(64) - 32)
	}
	if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
		return nil, err
	}
	r.SetTraceSpan(nil)
	root.End()
	return root.Trace(), nil
}

// runCalibrate closes the auto-mapper's validation loop: every network
// is deployed with planner-chosen mappings, executed through the
// simulator, and each layer's analytic prediction is held against the
// simulated latency. The planner evaluates the very cost functions the
// kernels charge (internal/model), so per-wave cycles cannot disagree
// and the error column reads as zeros; a nonzero row means the wave
// accounting around them has — the planner's wave count or partial last
// wave against what the engine dispatched, or re-dispatched waves of a
// faulted run landing in the simulated total.
func runCalibrate(w io.Writer, opt dpu.OptLevel, dpus int, asJSON bool) error {
	rep, err := core.Calibrate(core.CalibrateOptions{DPUs: dpus, Opt: opt})
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "== Auto-mapper calibration: predicted vs simulated latency (%d DPUs, %v) ==\n", dpus, opt)
	fmt.Fprintf(w, "%-9s %6s %9s %6s %14s %14s %9s\n",
		"network", "layer", "tasklets", "dpus", "predicted", "simulated", "error")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-9s %6d %9d %6d %14.6g %14.6g %+8.4f%%\n",
			r.Network, r.Layer, r.Tasklets, r.DPUsUsed,
			r.PredictedSeconds, r.SimulatedSeconds, r.Error*100)
	}
	fmt.Fprintf(w, "\n%d layers, max |error| %.4f%%\n", len(rep.Rows), rep.MaxAbsError*100)
	return nil
}
