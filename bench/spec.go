package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark's contract, at the root of the checkout the
// harness runs from. It is the only place metric names, units, bounds
// and workload names are written down: the harness emits exactly what
// it lists and fails when it has no value for an end-to-end metric.
const specFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of the contract the harness reads; command,
// paths and each workload's why are the driver's and the reader's.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: workloads, end_to_end, per_layer and run_seconds are all required", path)
	}
	return &s, nil
}

// simClock names the end-to-end metrics taken on the simulated clock.
// They repeat exactly on the in-process workloads, so -check compares
// them for equality there instead of against their bound.
var simClock = map[string]bool{"sim_cycles_per_op": true, "sim_xfer_bytes_per_op": true}
