package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndQuery(t *testing.T) {
	p := NewProfile()
	p.RecordN("__addsf3", 1, 57)
	p.RecordN("__addsf3", 1, 57)
	p.RecordN("__mulsi3", 1, 31)
	if got := p.Occ("__addsf3"); got != 2 {
		t.Errorf("Occ = %d, want 2", got)
	}
	if got := p.Cycles("__addsf3"); got != 114 {
		t.Errorf("Cycles = %d, want 114", got)
	}
	if got := p.Occ("__divsf3"); got != 0 {
		t.Errorf("Occ(unrecorded) = %d, want 0", got)
	}
}

func TestSubroutinesSorted(t *testing.T) {
	p := NewProfile()
	p.RecordN("__mulsi3", 1, 1)
	p.RecordN("__addsf3", 1, 1)
	p.RecordN("__divsf3", 1, 1)
	got := p.Subroutines()
	want := []string{"__addsf3", "__divsf3", "__mulsi3"}
	if len(got) != len(want) {
		t.Fatalf("Subroutines = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Subroutines[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestFloatSubroutinesFilter(t *testing.T) {
	p := NewProfile()
	p.RecordN("__addsf3", 1, 1)
	p.RecordN("__mulsi3", 1, 1) // integer: excluded
	p.RecordN("__ltsf2", 1, 1)
	p.RecordN("__adddf3", 1, 1) // double: included
	got := p.FloatSubroutines()
	if len(got) != 3 {
		t.Errorf("FloatSubroutines = %v, want 3 entries", got)
	}
	for _, n := range got {
		if n == "__mulsi3" {
			t.Error("integer subroutine leaked into float list")
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	p := NewProfile()
	p.RecordN("a", 1, 1)
	s := p.Snapshot()
	s["a"] = 99
	if p.Occ("a") != 1 {
		t.Error("snapshot mutation affected profile")
	}
}

func TestReset(t *testing.T) {
	p := NewProfile()
	p.RecordN("a", 1, 1)
	p.Reset()
	if p.Occ("a") != 0 || len(p.Subroutines()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestReportOrderingAndContent(t *testing.T) {
	p := NewProfile()
	p.RecordN("cheap", 1, 1)
	p.RecordN("expensive", 1, 1000)
	rep := p.Report()
	if !strings.Contains(rep, "#occ") {
		t.Error("report missing #occ header")
	}
	if strings.Index(rep, "expensive") > strings.Index(rep, "cheap") {
		t.Errorf("report not sorted by cycles:\n%s", rep)
	}
}

func TestDiff(t *testing.T) {
	before := NewProfile()
	before.RecordN("__divsf3", 100, 1072)
	before.RecordN("__mulsi3", 5, 31)
	after := NewProfile()
	after.RecordN("__mulsi3", 50, 31)

	rows := Diff(before, after)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// __divsf3 has the largest cycle reduction: first.
	if rows[0].Name != "__divsf3" {
		t.Errorf("first row = %s", rows[0].Name)
	}
	if rows[0].BeforeOcc != 100 || rows[0].AfterOcc != 0 {
		t.Errorf("divsf3 occ %d -> %d", rows[0].BeforeOcc, rows[0].AfterOcc)
	}
	if rows[1].Name != "__mulsi3" || rows[1].AfterOcc != 50 {
		t.Errorf("mulsi3 row: %+v", rows[1])
	}
	out := FormatDiff(rows)
	if !strings.Contains(out, "__divsf3") || !strings.Contains(out, "occ before") {
		t.Errorf("FormatDiff output:\n%s", out)
	}
}

func TestNilProfileSafe(t *testing.T) {
	var p *Profile
	p.RecordN("x", 1, 1) // must not panic
	if p.Occ("x") != 0 || p.Cycles("x") != 0 || p.Subroutines() != nil ||
		p.Snapshot() != nil || p.Report() != "" {
		t.Error("nil profile not inert")
	}
	p.Reset()
}

func TestConcurrentRecord(t *testing.T) {
	p := NewProfile()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.RecordN("op", 1, 2)
			}
		}()
	}
	wg.Wait()
	if got := p.Occ("op"); got != 8000 {
		t.Errorf("concurrent Occ = %d, want 8000", got)
	}
	if got := p.Cycles("op"); got != 16000 {
		t.Errorf("concurrent Cycles = %d, want 16000", got)
	}
}

// TestSpansStableOrder: the wave view of a trace is in (Start, Wave,
// Name) order whatever order the spans ended in, and holds only the
// spans that carry the engine's wave attribute.
func TestSpansStableOrder(t *testing.T) {
	root := NewTracer(TracerConfig{}).StartTrace("r")
	epoch := root.Trace().Epoch()
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	record := func(name string, wave, shards, from, to int) {
		c := root.StartChildAt(name, at(from))
		c.SetAttr("wave", int64(wave))
		c.SetAttr("shards", int64(shards))
		c.EndAt(at(to))
	}
	// Record out of time order, as interleaved engines would.
	record("launch", 2, 4, 30, 40)
	record("scatter", 1, 4, 0, 10)
	record("gather", 1, 4, 20, 30)
	record("launch", 1, 4, 10, 20)
	// Equal Start: wave breaks the tie, then name.
	record("scatter", 3, 4, 30, 35)
	record("gather", 2, 4, 30, 45)
	// Spans without the attribute (q.wave, kernels, the root)
	// are not wave spans.
	q := root.StartChildAt("q.wave", at(0))
	q.SetAttr("ticket", 1)
	q.EndAt(at(50))
	root.EndAt(at(50))
	got := root.Trace().WaveSpans()
	want := []struct {
		name string
		wave int
	}{
		{"scatter", 1}, {"launch", 1}, {"gather", 1},
		{"gather", 2}, {"launch", 2}, {"scatter", 3},
	}
	if len(got) != len(want) {
		t.Fatalf("WaveSpans len = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Wave != w.wave || got[i].Shards != 4 {
			t.Errorf("span %d = %s/w%d/%d shards, want %s/w%d/4 shards",
				i, got[i].Name, got[i].Wave, got[i].Shards, w.name, w.wave)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Errorf("span %d starts before span %d", i, i-1)
		}
	}
	if got[0].Start != 0 || got[0].End != 10*time.Millisecond {
		t.Errorf("span 0 = [%v, %v], want [0s, 10ms]", got[0].Start, got[0].End)
	}
	// w1's three phases are back to back; w2's launch and gather and
	// w3's scatter all start at 30ms.
	if mc := MaxConcurrent(got); mc != 3 {
		t.Errorf("MaxConcurrent = %d, want 3", mc)
	}
	if r := Render(got, 40); !strings.Contains(r, "w003 scatter") || !strings.Contains(r, "max concurrent spans: 3") {
		t.Errorf("render:\n%s", r)
	}
	if r := Render(nil, 40); r != "(no spans recorded)\n" {
		t.Errorf("empty render = %q", r)
	}
}
