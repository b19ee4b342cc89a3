package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/trace"
)

// faultReport runs the F1 fault-injection experiment (a YOLO-lite
// forward on gemm runners, an eBNN inference on ebnn runners), with
// -trace-out armed when traced. It returns the report's stdout and, when
// traced, the per-name slice counts of the written Perfetto file, plus
// each System root's engine dispatch spans.
func faultReport(t *testing.T, traced bool) (string, map[string]int, []int) {
	t.Helper()
	traceTracer, traceRoots = nil, nil
	if traced {
		traceTracer = trace.NewTracer(trace.TracerConfig{Ring: 1024})
	}
	defer func() { traceTracer = nil }()

	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	err = faultDemo(dpu.FaultPlan{Seed: 1, DeadFrac: 0.25, DeadAfterLaunches: 1})
	os.Stdout = saved
	stdout.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !traced {
		return string(out), nil, nil
	}

	path := filepath.Join(dir, "trace.json")
	if err := writeTraces(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []trace.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not trace-event JSON: %v", err)
	}
	slices := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices[ev.Name]++
		}
	}
	var dispatch []int
	for _, root := range traceRoots {
		dispatch = append(dispatch, len(root.Trace().WaveSpans()))
	}
	return string(out), slices, dispatch
}

// deadColumn matches the F1 table's "dead DPUs" cells ("| 2/8 |"):
// each armed System's len(DeadDPUs()).
var deadColumn = regexp.MustCompile(`\| (\d+)/\d+ \|`)

// TestTraceOut: -trace-out records the engine's dispatch spans under
// every System root, plus one dpu_down span per DPU the armed Systems
// lost, and never changes the report.
func TestTraceOut(t *testing.T) {
	plain, _, _ := faultReport(t, false)
	out, slices, dispatch := faultReport(t, true)
	if out != plain {
		t.Errorf("traced stdout differs from untraced:\n%s\nvs\n%s", out, plain)
	}
	if slices["wave"] == 0 || slices["dpu_kernel"] == 0 {
		t.Errorf("slices %v, want wave and dpu_kernel spans", slices)
	}
	if len(dispatch) != 4 {
		t.Errorf("%d System roots, want 4", len(dispatch))
	}
	for i, n := range dispatch {
		if n == 0 {
			t.Errorf("System root %d holds no dispatch span", i)
		}
	}
	dead := 0
	for _, m := range deadColumn.FindAllStringSubmatch(out, -1) {
		n, _ := strconv.Atoi(m[1])
		dead += n
	}
	if dead == 0 || slices["dpu_down"] != dead {
		t.Errorf("%d dpu_down spans, want one per dead DPU (%d)", slices["dpu_down"], dead)
	}
}

// TestParseFaultPlan: -faults accepts exactly the plans dpu.FaultPlan
// can act on. Probabilities and the dead fraction lie in [0, 1] (NaN
// and the infinities are out) and the launch count is not negative;
// anything else is an error, not a plan that injects nothing.
func TestParseFaultPlan(t *testing.T) {
	for in, want := range map[string]dpu.FaultPlan{
		"":                                  {},
		"dead=0.3,after=1,seed=1":           {Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1},
		"transfer=0,trap=1, dead=1,after=0": {TrapProb: 1, DeadFrac: 1},
	} {
		if got, err := parseFaultPlan(in); err != nil || got != want {
			t.Errorf("parseFaultPlan(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"transfer=NaN", "trap=-0.1", "dead=1.5", "transfer=+Inf", "trap=-Inf",
		"after=-1", "dead=x", "seed", "speed=1",
	} {
		if got, err := parseFaultPlan(in); err == nil {
			t.Errorf("parseFaultPlan(%q) = %+v, want an error", in, got)
		}
	}
}
