package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload of the contract once untraced and once
// traced on shrunken systems, and holds what they emit against
// BENCHMARK.json: every end-to-end metric on every workload, non-zero;
// every per-layer metric on every traced run, each with its unit, and
// each measured by at least one workload; nothing the contract does not
// name.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the harness has %d", specFile, len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	source := make(map[string]string) // per-layer metric -> a workload that measures it
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d is %q in %s, %q in the harness", i, w.Name, specFile, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 0.3, trace: trace, smoke: true, outDir: out}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Fatalf("%s trace=%v: %d attempted, %d failed: %v", w.Name, trace, res.attempted, res.failed, res.firstErr)
			}
			line, err := report(spec, o, res, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result line, the contract names %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s emitted as %+v (present=%v), want unit %q", w.Name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
				if _, set := res.values[d.Name]; trace && set {
					source[d.Name] = w.Name
				}
			}
			if !trace {
				continue
			}
			raw, err := os.ReadFile(res.spanFile)
			if err != nil {
				t.Fatalf("%s: span file: %v", w.Name, err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
				t.Fatalf("%s: span file %s holds %d spans (%v)", w.Name, res.spanFile, len(file.Spans), err)
			}
			if v := res.values["bench.trace_overhead_ratio"]; v <= 0 {
				t.Errorf("%s: bench.trace_overhead_ratio = %v", w.Name, v)
			}
		}
	}
	for _, d := range spec.PerLayer {
		if source[d.Name] == "" {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
	live.Lock()
	n := len(live.set)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d upmem-serve process(es) still running after the smoke runs", n)
	}
}

// An end-to-end metric without a value and a value without a contract
// entry both fail the report.
func TestReportHoldsTheContract(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDef{{Name: "setup_s", Unit: "s"}, {Name: "op_p50_ms", Unit: "ms"}},
		PerLayer: []metricDef{{Name: "gemm.calls_per_op", Unit: "count"}},
	}
	o := options{workload: "rows_zoo"}
	if _, err := report(spec, o, result{values: map[string]float64{"setup_s": 1}}, io.Discard); err == nil {
		t.Error("missing end-to-end metric did not fail the report")
	}
	if _, err := report(spec, o, result{values: map[string]float64{"setup_s": 1, "op_p50_ms": 2, "stray": 3}}, io.Discard); err == nil {
		t.Error("metric outside the contract did not fail the report")
	}
	o.trace = true
	line, err := report(spec, o, result{values: map[string]float64{}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := line.Metrics["gemm.calls_per_op"]; !ok || m.Value != 0 || m.Unit != "count" {
		t.Errorf("per-layer metric not taken in this workload emitted as %+v (present=%v), want 0 count", m, ok)
	}
}
