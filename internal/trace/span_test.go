package trace

import (
	"sync"
	"testing"
	"time"
)

// TestSpanTreeShape builds a small request-shaped tree and checks the
// recorded parent/child structure, deterministic IDs, and attributes.
func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("infer")
	if root == nil {
		t.Fatal("StartTrace returned nil with sampling off")
	}
	if root.TraceID() != 1 {
		t.Fatalf("first trace ID = %d, want 1", root.TraceID())
	}
	root.SetAttrStr("model", "tiny")

	adm := root.StartChild("admission")
	adm.End()
	wave := root.StartChild("wave")
	wave.SetAttr("shards", 4)
	kern := wave.StartChild("dpu_kernel")
	kern.SetAttr("dpu", 3)
	kern.End()
	wave.End()
	root.End()

	trc := root.Trace()
	if !trc.Complete() {
		t.Fatal("trace not complete after root.End")
	}
	spans := trc.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	byName := map[string]SpanNode{}
	for _, n := range spans {
		byName[n.Name] = n
	}
	if byName["infer"].ID != 1 || byName["infer"].Parent != 0 {
		t.Errorf("root node %+v, want ID 1 parent 0", byName["infer"])
	}
	if byName["admission"].Parent != 1 || byName["wave"].Parent != 1 {
		t.Errorf("admission/wave not parented to root: %+v %+v",
			byName["admission"], byName["wave"])
	}
	if byName["dpu_kernel"].Parent != byName["wave"].ID {
		t.Errorf("dpu_kernel parent %d, want wave's ID %d",
			byName["dpu_kernel"].Parent, byName["wave"].ID)
	}
	var model string
	for _, a := range byName["infer"].Attrs {
		if a.Key == "model" {
			model = a.Str
		}
	}
	if model != "tiny" {
		t.Errorf("root model attr %q, want tiny", model)
	}

	// A second trace gets the next sequential ID.
	if sp := tr.StartTrace("infer"); sp.TraceID() != 2 {
		t.Errorf("second trace ID = %d, want 2", sp.TraceID())
	}
}

// TestNilSpanSafe: every method on the disabled (nil) span and tracer
// must be a safe no-op — this is the one-branch disabled contract.
func TestNilSpanSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	child := sp.StartChild("child")
	if child != nil {
		t.Fatal("nil span minted a child")
	}
	sp.StartChildAt("c", time.Now())
	sp.End()
	sp.EndAt(time.Now())
	sp.Link(nil)
	if sp.TraceID() != 0 || sp.Trace() != nil {
		t.Error("nil span leaked identity")
	}
	if tr.Recorder() != nil {
		t.Error("nil tracer has a recorder")
	}
}

// TestSampling: 1-in-N head sampling keeps exactly every Nth trace.
func TestSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 4})
	kept := 0
	for i := 0; i < 16; i++ {
		if sp := tr.StartTrace("r"); sp != nil {
			kept++
			sp.End()
		}
	}
	if kept != 4 {
		t.Errorf("kept %d of 16 with Sample=4, want 4", kept)
	}
}

// TestMaxSpansCap: a trace drops spans past its cap (root always
// lands) and counts the drops.
func TestMaxSpansCap(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 8})
	root := tr.StartTrace("r")
	for i := 0; i < 20; i++ {
		root.StartChild("c").End()
	}
	root.End()
	trc := root.Trace()
	spans := trc.Spans()
	// The first 8 children fill the cap; the root is exempt from it (it
	// carries the trace's identity), so 9 spans survive of the 21 ended.
	if len(spans) != 9 {
		t.Errorf("retained %d spans, want 9 (cap 8 + root)", len(spans))
	}
	if d := Summarize(trc, time.Now()).Dropped; d != 12 {
		t.Errorf("dropped = %d, want 12", d)
	}
	if root, ok := trc.Root(); !ok || root.Name != "r" {
		t.Error("root span evicted by the cap")
	}
}

// TestRetroactiveSpans: StartChildAt/EndAt stamp historical windows
// exactly (simulated kernel durations).
func TestRetroactiveSpans(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("r")
	epoch := root.Trace().Epoch()
	sp := root.StartChildAt("q.launch", epoch.Add(5*time.Millisecond))
	sp.EndAt(epoch.Add(9 * time.Millisecond))
	root.End()
	for _, n := range root.Trace().Spans() {
		if n.Name != "q.launch" {
			continue
		}
		if n.Start != 5*time.Millisecond || n.End != 9*time.Millisecond {
			t.Errorf("q.launch window [%v,%v], want [5ms,9ms]", n.Start, n.End)
		}
		return
	}
	t.Fatal("q.launch span not recorded")
}

// TestLink: a follower's trace resolves a link to the leader's exec
// subtree as a copy re-minted after its own IDs, re-parented under the
// linking span, rebased onto its epoch and held to its span cap.
func TestLink(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 5})
	leader := tr.StartTrace("leader")
	follower := tr.StartTrace("follower")
	follower.StartChild("admission").End()
	batch := leader.StartChild("batch_exec")
	for w := int64(0); w < 3; w++ {
		launch := batch.StartChild("launch")
		launch.SetAttr("wave", w)
		launch.End()
	}
	batch.End()
	follower.Link(batch)
	leader.Link(batch) // within one trace: a no-op
	follower.End()
	leader.End()

	spans := follower.Trace().Spans()
	if s := Summarize(follower.Trace(), time.Now()); len(spans) != 6 || s.Spans != 6 || s.Dropped != 0 {
		t.Fatalf("follower has %d spans (summary %+v), want 6: %+v", len(spans), s, spans)
	}
	be, _ := findSpan(follower.Trace(), "batch_exec")
	if be.Parent != 1 || be.ID <= 2 {
		t.Errorf("linked batch_exec %+v, want parent 1 and an ID after the follower's own 2", be)
	}
	w := int64(0)
	for _, n := range spans {
		if n.Name == "launch" {
			if n.Parent != be.ID || n.Attrs[0] != (Attr{Key: "wave", Val: w}) {
				t.Errorf("linked span %+v, want a launch under %d with wave %d", n, be.ID, w)
			}
			w++
		}
	}
	// The linked window lands at the same wall-clock instant in both.
	lbe, _ := findSpan(leader.Trace(), "batch_exec")
	if d := follower.Trace().Epoch().Add(be.Start).Sub(leader.Trace().Epoch().Add(lbe.Start)); d != 0 {
		t.Errorf("linked span start shifted by %v across epochs", d)
	}
	if got := len(leader.Trace().Spans()); got != 5 {
		t.Errorf("same-trace link changed the leader: %d spans, want 5", got)
	}
	// Two spans of its own leave room for three linked ones under the
	// cap; the fourth counts as dropped.
	f2 := tr.StartTrace("f2")
	f2.StartChild("a").End()
	f2.StartChild("b").End()
	f2.Link(batch)
	f2.End()
	if s := Summarize(f2.Trace(), time.Now()); s.Spans != 6 || s.Dropped != 1 {
		t.Errorf("capped follower summary %+v, want 6 spans and 1 dropped", s)
	}
}

func findSpan(tr *Trace, name string) (SpanNode, bool) {
	for _, n := range tr.Spans() {
		if n.Name == name {
			return n, true
		}
	}
	return SpanNode{}, false
}

// TestConcurrentSpanHammer exercises the documented concurrency
// contract under -race: many goroutines create children of a shared
// parent, attach attrs to their own spans, end them, and link
// subtrees across traces, while readers export and summarize.
func TestConcurrentSpanHammer(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 8})
	const writers = 8
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: export and summarize whatever the recorder holds.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, done := range tr.Recorder().Traces() {
					_ = done.Spans()
					_ = Summarize(done, time.Now())
				}
				tr.Recorder().Slowest(4)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev *Span
			for i := 0; i < 50; i++ {
				root := tr.StartTrace("req")
				root.SetAttr("writer", int64(w))
				// Children of a shared parent from two goroutines.
				var inner sync.WaitGroup
				for g := 0; g < 2; g++ {
					inner.Add(1)
					go func(g int) {
						defer inner.Done()
						c := root.StartChild("child")
						c.SetAttr("g", int64(g))
						c.StartChild("kernel").End()
						c.End()
					}(g)
				}
				inner.Wait()
				if prev != nil {
					root.Link(prev)
				}
				prev = root.StartChild("batch")
				prev.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(tr.Recorder().Traces()); got == 0 {
		t.Error("no traces retained after hammer")
	}
}
