package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/trace"
)

// TestServeTracingEndToEnd fires concurrent requests at a tracing
// server and asserts each yields an exportable span tree reaching from
// the HTTP handler down to the per-DPU kernels, served as Perfetto
// trace-event JSON on /v1/trace/{id}.
func TestServeTracingEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{traceSample: 1, traceRing: 32})

	const reqs = 6
	ids := make([]uint64, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = out.TraceID
		}(i)
	}
	wg.Wait()

	for i, id := range ids {
		if id == 0 {
			t.Fatalf("request %d got no trace ID with sample=1", i)
		}
	}

	// Every trace must export as loadable Perfetto JSON whose slices
	// span the whole stack: request root, admission, queue wait, batch
	// execution, and at least one DPU kernel.
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/v1/trace/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %d: status %d: %s", id, resp.StatusCode, body)
		}
		var doc struct {
			TraceEvents []trace.TraceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("trace %d is not valid JSON: %v", id, err)
		}
		names := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				names[ev.Name] = true
				if ev.Pid != uint64(id) {
					t.Errorf("trace %d: slice %q has pid %d", id, ev.Name, ev.Pid)
				}
			}
		}
		for _, want := range []string{"infer", "admission", "queue_wait", "batch_exec", "dpu_kernel"} {
			if !names[want] {
				t.Errorf("trace %d missing span %q (have %v)", id, want, names)
			}
		}
	}

	// The last-trace alias resolves.
	resp, err := http.Get(ts.URL + "/v1/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/trace/last: status %d", resp.StatusCode)
	}

	// The stats endpoint surfaces the flight-recorder summary.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Slowest []trace.TraceSummary `json:"slowest_requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Slowest) == 0 {
		t.Fatal("stats endpoint reports no slowest_requests")
	}
	if stats.Slowest[0].Model != "tiny" || stats.Slowest[0].Spans < 5 {
		t.Errorf("slowest summary %+v, want model tiny with a full span tree", stats.Slowest[0])
	}
}

// TestServeStatsRecorderLoss: /v1/stats counts what the flight recorder
// no longer holds — traces overwritten by ring rotation, and spans cut
// by the per-trace cap in the traces it still has.
func TestServeStatsRecorderLoss(t *testing.T) {
	s, ts := newTestServer(t, serveConfig{traceSample: 1, traceRing: 2})
	for i := 0; i < 3; i++ {
		if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	// A fourth trace that hit a span cap of 2: three of its five children
	// are dropped (the root always lands).
	capped := trace.NewTracer(trace.TracerConfig{MaxSpans: 2}).StartTrace("capped")
	for i := 0; i < 5; i++ {
		capped.StartChild("c").End()
	}
	capped.End()
	s.tracer.Recorder().Add(capped.Trace())

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		SpansDropped      *int    `json:"spans_dropped"`
		TracesOverwritten *uint64 `json:"traces_overwritten"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SpansDropped == nil || stats.TracesOverwritten == nil {
		t.Fatal("stats endpoint omits spans_dropped or traces_overwritten")
	}
	if *stats.SpansDropped != 3 || *stats.TracesOverwritten != 2 {
		t.Errorf("spans_dropped %d, traces_overwritten %d; want 3 and 2 (4 traces through a ring of 2)",
			*stats.SpansDropped, *stats.TracesOverwritten)
	}
}

// TestServeTracingDisabled: the default config keeps tracing off —
// no trace IDs, 404 on the trace endpoint.
func TestServeTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{})
	resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.TraceID != 0 {
		t.Errorf("untraced server minted trace ID %d", out.TraceID)
	}
	r2, err := http.Get(ts.URL + "/v1/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/trace with tracing off: status %d, want 404", r2.StatusCode)
	}
}

// TestServeTracingSampled: with 1-in-N sampling only a fraction of
// requests carry trace IDs, and unsampled requests still succeed.
func TestServeTracingSampled(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{traceSample: 4, traceRing: 16})
	traced := 0
	for i := 0; i < 8; i++ {
		resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if out.TraceID != 0 {
			traced++
		}
	}
	if traced != 2 {
		t.Errorf("traced %d of 8 with sample=4, want 2", traced)
	}
}

// TestServeSLOBreachDumps: a sub-nanosecond SLO makes every request a
// breach; the flight recorder must dump with the breach reason, and the
// dump must surface on /v1/stats and at the onDump sink.
func TestServeSLOBreachDumps(t *testing.T) {
	var mu sync.Mutex
	var sunk []string
	s, ts := newTestServer(t, serveConfig{
		traceSample: 1, traceRing: 16, slo: time.Nanosecond,
		onDump: func(d *trace.DumpRecord) {
			mu.Lock()
			sunk = append(sunk, d.Reason)
			mu.Unlock()
		},
	})
	resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	dumps := s.tracer.Recorder().Dumps()
	if len(dumps) == 0 {
		t.Fatal("SLO breach produced no flight-recorder dump")
	}
	d := dumps[len(dumps)-1]
	if !strings.HasPrefix(d.Reason, "slo_breach:") || !strings.Contains(d.Reason, "model=tiny") {
		t.Errorf("dump reason %q", d.Reason)
	}
	// The breaching trace itself is in the dump (root ended before Dump).
	found := false
	for _, id := range d.TraceIDs {
		if uint64(id) == out.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("breaching trace %d absent from dump IDs %v", out.TraceID, d.TraceIDs)
	}
	mu.Lock()
	if len(sunk) == 0 {
		t.Error("onDump sink never invoked")
	}
	mu.Unlock()

	var stats struct {
		Dumps []*trace.DumpRecord `json:"dumps"`
	}
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(stats.Dumps) == 0 {
		t.Error("stats endpoint hides flight-recorder dumps")
	}
}

// TestServeFaultDumps: killing the whole array mid-service makes the
// next request fail, and that failure must trigger a flight-recorder
// dump carrying the traces that led up to it.
func TestServeFaultDumps(t *testing.T) {
	s, ts := newTestServer(t, serveConfig{traceSample: 1, traceRing: 16})

	// A healthy request first, so the recorder holds pre-fault context.
	if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request: status %d", resp.StatusCode)
	}

	s.sys.InjectFaults(dpu.FaultPlan{Seed: 7, DeadFrac: 1.0, DeadAfterLaunches: 1})
	resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 2})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("request succeeded on an all-dead array")
	}

	dumps := s.tracer.Recorder().Dumps()
	if len(dumps) == 0 {
		t.Fatal("faulted batch produced no flight-recorder dump")
	}
	d := dumps[len(dumps)-1]
	if !strings.HasPrefix(d.Reason, "error:") && !strings.HasPrefix(d.Reason, "fault:") {
		t.Errorf("dump reason %q, want error:/fault: prefix", d.Reason)
	}
	if len(d.Traces) == 0 {
		t.Error("fault dump carries no traces")
	}
}
