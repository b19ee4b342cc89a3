// Command upmem-profile reproduces the thesis's chapter 3 DPU
// characterization on the simulator: per-operation cycle counts at each
// precision (Table 3.1), the MRAM access cost formula (Eq 3.4), and a
// floating-point subroutine occurrence profile (Fig 3.1/3.2), including
// an assembly-level version of the Fig 3.1 microbenchmark executed
// through the miniature ISA interpreter.
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
	"pimdnn/internal/isa"
	"pimdnn/internal/metrics"
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
	timelineFlag := fs.Bool("timeline", false,
		"dispatch a demo GEMM under a request trace and render its wave spans as a wall-clock Gantt chart")
	jsonFlag := fs.Bool("json", false,
		"emit the characterization as one JSON document (metrics snapshot, plus the traced demo GEMM's wave spans with -timeline) instead of text")
	calibrateFlag := fs.Bool("calibrate", false,
		"run the auto-mapper calibration loop: execute every network with planner-chosen mappings and compare predicted vs simulated latency per layer")
	dpusFlag := fs.Int("dpus", 64, "system size for -calibrate")
	perfettoFlag := fs.String("perfetto", "",
		"run only the traced demo GEMM (the one -timeline charts) and write its span tree — waves, per-DPU kernels — to this file as Chrome trace-event (Perfetto) JSON")
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
	if *jsonFlag {
		return runJSON(w, opt, *timelineFlag)
	}

	fmt.Fprintf(w, "== Table 3.1: cycles per operation (single DPU, 1 tasklet, %v) ==\n", opt)
	fmt.Fprintf(w, "%-24s %10s %12s\n", "operation", "cycles", "paper (O0)")
	for _, b := range profileBenches() {
		cycles, err := profile(opt, b.body)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %10d %12s\n", b.name, cycles, b.paper)
	}

	fmt.Fprintf(w, "\n== Eq 3.4: MRAM access cycles (25 + bytes/2) ==\n")
	for _, n := range []int{8, 64, 512, 1024, 2048} {
		fmt.Fprintf(w, "%5d bytes -> %5d cycles\n", n, dpu.DMACost(n))
	}

	fmt.Fprintf(w, "\n== Fig 3.1 microbenchmark as an assembled DPU program ==\n")
	cycles, listing, err := isaBench(opt)
	if err != nil {
		return err
	}
	fmt.Fprint(w, listing)
	fmt.Fprintf(w, "perfcounter: %d cycles around the float multiply\n", cycles)

	fmt.Fprintf(w, "\n== Fig 3.2: subroutine profile of a float-heavy kernel ==\n")
	d, err := dpu.New(dpu.DefaultConfig(opt))
	if err != nil {
		return err
	}
	if _, err := d.Launch(4, floatHeavyKernel); err != nil {
		return err
	}
	fmt.Fprint(w, d.Profile().Report())

	if *timelineFlag {
		fmt.Fprintf(w, "\n== Execution engine: wave timeline (wall clock) ==\n")
		tr, err := runTracedGEMM(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, demoGEMM)
		fmt.Fprint(w, trace.Render(tr.WaveSpans(), 64))
	}
	return nil
}

// The one workload behind -timeline and -perfetto: 3 waves of 8
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

// runJSON emits the same characterization as one JSON document on
// stdout: every measured quantity lands in a metrics.Registry (labeled
// counters) whose snapshot encoder — the same one behind -metrics-addr
// and upmem-top — renders the "metrics" field, and -timeline adds the
// traced demo GEMM's wave spans under "timeline".
func runJSON(w io.Writer, opt dpu.OptLevel, timeline bool) error {
	reg := metrics.NewRegistry()
	for _, b := range profileBenches() {
		cycles, err := profile(opt, b.body)
		if err != nil {
			return err
		}
		reg.LabeledCounter("upmem_profile_op_cycles", "op", b.name).Add(cycles)
	}
	for _, n := range []int{8, 64, 512, 1024, 2048} {
		reg.LabeledCounter("upmem_profile_mram_access_cycles", "bytes",
			fmt.Sprintf("%d", n)).Add(dpu.DMACost(n))
	}
	cycles, _, err := isaBench(opt)
	if err != nil {
		return err
	}
	reg.Counter("upmem_profile_isa_fmul_cycles").Add(cycles)

	d, err := dpu.New(dpu.DefaultConfig(opt))
	if err != nil {
		return err
	}
	if _, err := d.Launch(4, floatHeavyKernel); err != nil {
		return err
	}
	p := d.Profile()
	for _, sub := range p.Subroutines() {
		reg.LabeledCounter("upmem_profile_subroutine_occurrences_total", "sub", sub).Add(p.Occ(sub))
		reg.LabeledCounter("upmem_profile_subroutine_cycles_total", "sub", sub).Add(p.Cycles(sub))
	}

	out := struct {
		Opt      string           `json:"opt"`
		Metrics  metrics.Snapshot `json:"metrics"`
		Workload string           `json:"timeline_workload,omitempty"`
		Timeline []trace.WaveSpan `json:"timeline,omitempty"`
	}{Opt: fmt.Sprint(opt), Metrics: reg.Snapshot()}
	if timeline {
		tr, err := runTracedGEMM(opt)
		if err != nil {
			return err
		}
		out.Workload = demoGEMM
		out.Timeline = tr.WaveSpans()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
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

// bench is one Table 3.1 row: an operation and the thesis's O0 count.
type bench struct {
	name  string
	body  func(t *dpu.Tasklet)
	paper string
}

// profileBenches is the Table 3.1 operation set, shared by the text and
// JSON expositions.
func profileBenches() []bench {
	return []bench{
		{"8-bit add", func(t *dpu.Tasklet) { t.Add32(3, 4) }, "272"},
		{"16-bit add", func(t *dpu.Tasklet) { t.Add32(300, 400) }, "272"},
		{"32-bit add", func(t *dpu.Tasklet) { t.Add32(3e6, 4e6) }, "272"},
		{"8-bit multiply", func(t *dpu.Tasklet) { t.Mul8(3, 4) }, "272"},
		{"16-bit multiply", func(t *dpu.Tasklet) { t.Mul16(300, 40) }, "608"},
		{"32-bit multiply", func(t *dpu.Tasklet) { t.Mul32(3e6, 40) }, "800"},
		{"8-bit subtract", func(t *dpu.Tasklet) { t.Sub32(3, 4) }, "272"},
		{"fixed divide", func(t *dpu.Tasklet) { t.Div32(300, 4) }, "368"},
		{"float add", func(t *dpu.Tasklet) { t.FAdd(0x40400000, 0x40800000) }, "896"},
		{"float subtract", func(t *dpu.Tasklet) { t.FSub(0x40400000, 0x40800000) }, "928"},
		{"float multiply", func(t *dpu.Tasklet) { t.FMul(0x40400000, 0x40800000) }, "2528"},
		{"float divide", func(t *dpu.Tasklet) { t.FDiv(0x40400000, 0x40800000) }, "12064"},
	}
}

func profile(opt dpu.OptLevel, body func(t *dpu.Tasklet)) (uint64, error) {
	d, err := dpu.New(dpu.DefaultConfig(opt))
	if err != nil {
		return 0, err
	}
	var cycles uint64
	_, err = d.Launch(1, func(t *dpu.Tasklet) error {
		t.PerfcounterConfig()
		t.Charge(dpu.OpNop, 21) // measurement harness instructions
		body(t)
		cycles = t.PerfcounterGet()
		return nil
	})
	return cycles, err
}

// isaBench assembles and runs the Fig 3.1 program: two floats multiplied
// between perfcounter_config() and perfcounter_get().
func isaBench(opt dpu.OptLevel) (uint64, string, error) {
	src := `
	; Fig 3.1: profile one floating-point multiply
		movi r1, 3
		movi r2, 4
		fsi  r3, r1      ; float a = 3
		fsi  r4, r2      ; float b = 4
		pcfg             ; perfcounter_config()
		fmul r5, r3, r4  ; a * b
		pget r6          ; perfcounter_get()
		halt
	`
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, "", err
	}
	d, err := dpu.New(dpu.DefaultConfig(opt))
	if err != nil {
		return 0, "", err
	}
	if err := isa.Load(d, prog); err != nil {
		return 0, "", err
	}
	var counter uint64
	_, err = d.Launch(1, isa.Kernel(nil, func(_ int, r isa.Regs) {
		counter = uint64(r[6])
	}))
	if err != nil {
		return 0, "", err
	}
	return counter, isa.Disassemble(prog), nil
}

// floatHeavyKernel mimics the unmodified eBNN BN-BinAct block: repeated
// normalization in software floating point.
func floatHeavyKernel(t *dpu.Tasklet) error {
	mean := t.FFromInt(5)
	std := t.FFromInt(3)
	for i := 0; i < 64; i++ {
		v := t.FFromInt(int32(i % 19))
		centered := t.FSub(v, mean)
		norm := t.FDiv(centered, std)
		scaled := t.FMul(norm, t.FFromInt(1))
		shifted := t.FAdd(scaled, t.FFromInt(0))
		if t.FGe(shifted, 0) {
			t.Charge(dpu.OpStore, 1)
		}
		_ = t.FToInt(shifted)
	}
	return nil
}
