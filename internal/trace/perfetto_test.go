package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenTrace builds a deterministic request-shaped trace: every span
// is stamped retroactively at fixed offsets from the epoch, so the
// export is byte-stable regardless of wall-clock speed.
func goldenTrace() *Trace {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("infer")
	epoch := root.Trace().Epoch()
	at := func(us int64) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }

	root.SetAttrStr("model", "tiny")
	root.SetAttr("batch_size", 2)

	adm := root.StartChildAt("admission", at(1))
	adm.EndAt(at(2))
	q := root.StartChildAt("queue_wait", at(2))
	q.EndAt(at(10))

	batch := root.StartChildAt("batch_exec", at(10))
	w0 := batch.StartChildAt("wave", at(12))
	w0.SetAttr("wave", 0)
	w0.SetAttr("shards", 2)
	k0 := w0.StartChildAt("dpu_kernel", at(12))
	k0.SetAttr("dpu", 0)
	k0.EndAt(at(40))
	w0.EndAt(at(50))
	// Overlaps w0, so lane packing must split them.
	w1 := batch.StartChildAt("wave", at(45))
	w1.SetAttr("wave", 1)
	w1.EndAt(at(88))
	batch.EndAt(at(90))

	root.EndAt(at(100))
	return root.Trace()
}

// TestPerfettoGolden pins the exact trace-event JSON for the canonical
// request tree (regenerate with: go test ./internal/trace -run Golden -update).
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPerfettoSchema validates the fields a trace-event viewer relies
// on: the top-level traceEvents array, ph/ts/pid/tid on every record,
// dur on complete slices, and that no two slices overlap on one lane.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	type window struct{ start, end float64 }
	lanes := map[[2]uint64][]window{}
	slices := 0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			t.Fatalf("event %d: ph = %q, want X or M", i, ph)
		}
		if name, _ := ev["name"].(string); name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: bad ts %v", i, ev["ts"])
		}
		pid, ok := ev["pid"].(float64)
		if !ok || pid != 1 {
			t.Fatalf("event %d: pid %v, want trace ID 1", i, ev["pid"])
		}
		tid, ok := ev["tid"].(float64)
		if !ok || tid < 0 {
			t.Fatalf("event %d: bad tid %v", i, ev["tid"])
		}
		if ph != "X" {
			continue
		}
		slices++
		dur, ok := ev["dur"].(float64)
		if !ok || dur < 0 {
			t.Fatalf("slice %d: bad dur %v", i, ev["dur"])
		}
		key := [2]uint64{uint64(pid), uint64(tid)}
		for _, w := range lanes[key] {
			if ts < w.end && w.start < ts+dur {
				t.Errorf("slice %q [%v,%v] overlaps another on pid=%v tid=%v",
					ev["name"], ts, ts+dur, pid, tid)
			}
		}
		lanes[key] = append(lanes[key], window{ts, ts + dur})
	}
	// Root + admission + queue_wait + batch_exec + 2 waves + kernel.
	if slices != 7 {
		t.Errorf("exported %d complete slices, want 7", slices)
	}
	if doc.Unit != "ns" {
		t.Errorf("displayTimeUnit %q", doc.Unit)
	}
}
