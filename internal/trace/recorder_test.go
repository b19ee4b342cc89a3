package trace

import (
	"testing"
	"time"
)

// mkTrace completes one trace with the given name and simulated
// duration, delivering it to the tracer's recorder.
func mkTrace(tr *Tracer, name string, dur time.Duration) *Span {
	root := tr.StartTrace(name)
	root.EndAt(root.Trace().Epoch().Add(dur))
	return root
}

// TestRecorderRingEviction: the ring keeps the newest N completed
// traces, evicting the oldest.
func TestRecorderRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 4})
	for i := 0; i < 6; i++ {
		mkTrace(tr, "r", time.Millisecond)
		if got := tr.Recorder().Overwritten(); i == 3 && got != 0 {
			t.Errorf("Overwritten = %d with the ring of 4 just full, want 0", got)
		}
	}
	if got := tr.Recorder().Overwritten(); got != 2 {
		t.Errorf("Overwritten = %d after 6 traces in a ring of 4, want 2", got)
	}
	got := tr.Recorder().Traces()
	if len(got) != 4 {
		t.Fatalf("retained %d traces, want ring size 4", len(got))
	}
	// Newest first: IDs 6,5,4,3 — 1 and 2 evicted.
	want := []TraceID{6, 5, 4, 3}
	for i, trc := range got {
		if trc.ID() != want[i] {
			t.Errorf("Traces()[%d].ID = %d, want %d", i, trc.ID(), want[i])
		}
	}
	if tr.Recorder().Find(1) != nil {
		t.Error("evicted trace 1 still findable")
	}
	if tr.Recorder().Find(5) == nil {
		t.Error("retained trace 5 not findable")
	}
}

// TestRecorderDump: a dump freezes the current ring, retains the
// record (bounded), and invokes the sink.
func TestRecorderDump(t *testing.T) {
	var sunk []*DumpRecord
	tr := NewTracer(TracerConfig{Ring: 8, OnDump: func(d *DumpRecord) { sunk = append(sunk, d) }})
	mkTrace(tr, "a", time.Millisecond)
	mkTrace(tr, "b", 2*time.Millisecond)

	d := tr.Recorder().Dump("slo_breach:test")
	if d == nil || d.Reason != "slo_breach:test" {
		t.Fatalf("dump = %+v", d)
	}
	if len(d.TraceIDs) != 2 || d.TraceIDs[0] != 2 {
		t.Errorf("dump trace IDs %v, want [2 1]", d.TraceIDs)
	}
	if len(sunk) != 1 || sunk[0] != d {
		t.Errorf("sink saw %d dumps", len(sunk))
	}
	// A trace completed after the dump must not appear in it.
	mkTrace(tr, "c", time.Millisecond)
	if len(d.Traces) != 2 {
		t.Errorf("dump grew after the fact: %d traces", len(d.Traces))
	}
	if got := tr.Recorder().Dumps(); len(got) != 1 || got[0].Reason != "slo_breach:test" {
		t.Errorf("Dumps() = %d records", len(got))
	}
	// Retention bound: old dumps drop first.
	for i := 0; i < maxDumps+5; i++ {
		tr.Recorder().Dump("again")
	}
	if got := tr.Recorder().Dumps(); len(got) != maxDumps {
		t.Errorf("retained %d dumps, want %d", len(got), maxDumps)
	}
}

// TestSummarizeAndSlowest: summaries surface the root attrs and queue
// wait, and Slowest orders by duration.
func TestSummarizeAndSlowest(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 8})

	mk := func(dur, queue time.Duration, model string, batch int64) {
		root := tr.StartTrace("infer")
		epoch := root.Trace().Epoch()
		root.SetAttrStr("model", model)
		root.SetAttr("batch_size", batch)
		q := root.StartChildAt("queue_wait", epoch)
		q.EndAt(epoch.Add(queue))
		root.EndAt(epoch.Add(dur))
	}
	mk(5*time.Millisecond, time.Millisecond, "tiny", 2)
	mk(20*time.Millisecond, 3*time.Millisecond, "lite", 4)
	mk(10*time.Millisecond, 0, "tiny", 1)

	slow := tr.Recorder().Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("Slowest(2) returned %d", len(slow))
	}
	if slow[0].ID != 2 || slow[0].Duration != 20*time.Millisecond {
		t.Errorf("slowest = %+v, want trace 2 at 20ms", slow[0])
	}
	if slow[1].ID != 3 {
		t.Errorf("second slowest = %+v, want trace 3", slow[1])
	}
	if slow[0].Model != "lite" || slow[0].BatchSize != 4 {
		t.Errorf("summary lost root attrs: %+v", slow[0])
	}
	if slow[0].QueueWait != 3*time.Millisecond {
		t.Errorf("queue wait %v, want 3ms", slow[0].QueueWait)
	}
	if slow[0].Spans != 2 {
		t.Errorf("span count %d, want 2", slow[0].Spans)
	}
}

// TestNilRecorderSafe: every method on a nil recorder no-ops.
func TestNilRecorderSafe(t *testing.T) {
	var r *FlightRecorder
	r.Add(nil)
	if r.Traces() != nil || r.Find(1) != nil || r.Dump("x") != nil ||
		r.Dumps() != nil || r.Slowest(3) != nil {
		t.Error("nil recorder returned data")
	}
}
