package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pimdnn/internal/trace"
)

// runOut runs the command with args and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("upmem-profile %v: %v", args, err)
	}
	return out.String()
}

// TestTimelineText: the demo GEMM's Gantt chart is three waves, one at a
// time.
func TestTimelineText(t *testing.T) {
	out := runOut(t, "-timeline")
	if !strings.Contains(out, "== Table 3.1") || !strings.Contains(out, demoGEMM) {
		t.Errorf("missing Table 3.1 or the workload line:\n%s", out)
	}
	if rows := regexp.MustCompile(`(?m)^w\d{3} wave `).FindAllString(out, -1); len(rows) != 3 {
		t.Errorf("%d wave rows, want 3:\n%s", len(rows), out)
	}
	m := regexp.MustCompile(`(?m)^max concurrent spans: (\d+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no max concurrent spans line:\n%s", out)
	}
	if mc, _ := strconv.Atoi(m[1]); mc != 1 {
		t.Errorf("max concurrent spans = %d, want 1 (one wave at a time)", mc)
	}
}

func TestTimelineJSON(t *testing.T) {
	var doc struct {
		Workload string                       `json:"timeline_workload"`
		Timeline []map[string]json.RawMessage `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(runOut(t, "-json", "-timeline")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != demoGEMM || len(doc.Timeline) != 3 {
		t.Fatalf("workload %q with %d timeline spans, want %q with 3", doc.Workload, len(doc.Timeline), demoGEMM)
	}
	for i, span := range doc.Timeline {
		if len(span) != 5 {
			t.Errorf("span %d has keys %v, want exactly name, wave, shards, start_ns, end_ns", i, span)
		}
		for _, key := range []string{"name", "wave", "shards", "start_ns", "end_ns"} {
			if _, ok := span[key]; !ok {
				t.Errorf("span %d lacks %q", i, key)
			}
		}
		if string(span["name"]) != `"wave"` || string(span["shards"]) != "8" {
			t.Errorf("span %d = %s of %s shards, want a wave of 8", i, span["name"], span["shards"])
		}
	}
	// Without -timeline the demo GEMM is not run and the keys are absent.
	if out := runOut(t, "-json"); strings.Contains(out, "timeline") {
		t.Errorf("-json alone mentions a timeline:\n%s", out)
	}
}

func TestPerfetto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gemm.json")
	// The span tree is what is written, with or without -timeline.
	out := runOut(t, "-perfetto", path, "-timeline")
	if !strings.HasPrefix(out, "wrote span tree") || strings.Count(out, "\n") != 1 {
		t.Errorf("-perfetto output:\n%s", out)
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
	if slices["profile_gemm"] != 1 || slices["wave"] != 3 || slices["dpu_kernel"] != 24 {
		t.Errorf("slices %v, want the root, 3 wave and 24 dpu_kernel", slices)
	}
}

func TestFailedRunLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-O", "7", "-perfetto", filepath.Join(dir, "bad-opt.json")},
		{"-perfetto", filepath.Join(dir, "missing", "gemm.json")},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("upmem-profile %v succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("upmem-profile %v printed before failing:\n%s", args, out.String())
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("failed runs left %v behind", left)
	}
	// A bad -O fails before the Table 3.1 header, not after it.
	var out bytes.Buffer
	if err := run([]string{"-O", "-1"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("-O -1: err %v, output %q", err, out.String())
	}
}
