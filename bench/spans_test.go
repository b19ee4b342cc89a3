package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		// Two nested children that overlap: [10,40) and [30,60) cover 50.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		// A nested child sticking out of its parent counts only inside it.
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		// Replays run after the parent returned: they count by duration.
		{ID: 4, Parent: 1, Name: "r", Start: 200, End: 212, Replay: true},
		{ID: 5, Parent: 1, Name: "r", Start: 212, End: 220, Replay: true},
		// A replay slower than the call it stands for clamps at zero.
		{ID: 6, Parent: 2, Name: "r", Start: 300, End: 400, Replay: true},
		// A grandchild replay is charged to its parent, not the root.
		{ID: 7, Parent: 4, Name: "k", Start: 500, End: 505, Replay: true},
	}
	want := []int64{100 - 50 - 10, 30 - 20, 0, 30, 12 - 5, 8, 100, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	ix := indexSpans(spans)
	if ms := ix.childSumMS(1, "r"); ms != nsToMS(20) {
		t.Errorf("childSumMS = %v, want %v", ms, nsToMS(20))
	}
	if ms := ix.grandchildSumMS(0, "r"); ms != nsToMS(120) {
		t.Errorf("grandchildSumMS = %v, want %v", ms, nsToMS(120))
	}
	if d := ix.durMS("r"); len(d) != 3 {
		t.Errorf("durMS found %d spans called r, want 3", len(d))
	}
}

func TestRecorderOffIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0, false)
	r.end(id)
	sp := spanCtx{rec: r, parent: id}
	sp.end(sp.begin("y"))
	if id != -1 {
		t.Errorf("nil recorder returned span id %d, want -1", id)
	}
}

func TestRecorderTreeAndFile(t *testing.T) {
	r := newRecorder()
	for op := 0; op < 10; op++ {
		root := r.begin("op", -1, op, false)
		sp := spanCtx{rec: r, parent: root, op: op}
		sp.end(sp.begin("layer"))
		r.end(root)
	}
	picked := r.pick("layer", 3)
	if len(picked) != 3 || picked[0].Op != 0 || picked[1].Op != 3 || picked[2].Op != 6 {
		t.Fatalf("pick(layer, 3) = %+v, want ops 0, 3, 6", picked)
	}
	if all := r.pick("layer", 50); len(all) != 10 {
		t.Fatalf("pick with k above the count returned %d spans, want all 10", len(all))
	}
	r.replay("below", picked[1].ID, picked[1].Op, func(int) {})
	last := r.spans[len(r.spans)-1]
	if !last.Replay || last.Parent != picked[1].ID || last.Op != 3 || last.End < last.Start {
		t.Fatalf("replay span = %+v", last)
	}
	for _, s := range r.spans {
		if s.Name == "layer" && r.spans[s.Parent].Name != "op" {
			t.Fatalf("layer span %d hangs below %q, want op", s.ID, r.spans[s.Parent].Name)
		}
	}

	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := writeSpans(path, map[string]any{"seed": 1}, r.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env   map[string]any
		Spans []span
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) != len(r.spans) || file.Env["seed"] != float64(1) {
		t.Fatalf("span file holds %d spans, env %v", len(file.Spans), file.Env)
	}
}
