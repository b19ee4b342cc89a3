package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/trace"
)

func snap(cycles []uint64, launches []uint64) metrics.Snapshot {
	var s metrics.Snapshot
	for i, c := range cycles {
		v := string(rune('0' + i))
		s.Counters = append(s.Counters, metrics.CounterSnap{
			Name: "pim_dpu_cycles_total", LabelKey: "dpu", LabelVal: v, Value: c,
		})
		s.Counters = append(s.Counters, metrics.CounterSnap{
			Name: "pim_dpu_launches_total", LabelKey: "dpu", LabelVal: v, Value: launches[i],
		})
	}
	s.Counters = append(s.Counters,
		metrics.CounterSnap{Name: "pim_host_xfer_bytes_total", LabelKey: "dir", LabelVal: "to_dpu", Value: 4096},
		metrics.CounterSnap{Name: "pim_host_xfer_bytes_total", LabelKey: "dir", LabelVal: "from_dpu", Value: 1024},
		metrics.CounterSnap{Name: "pim_exec_waves_total", Value: 7},
		metrics.CounterSnap{Name: "pim_layer_cycles_total", LabelKey: "layer", LabelVal: "yolo_conv000", Value: 5000},
	)
	s.Gauges = append(s.Gauges,
		metrics.GaugeSnap{Name: "pim_exec_down_dpus", Value: 1},
	)
	return s
}

func TestRenderDeltasAndBars(t *testing.T) {
	prev := snap([]uint64{100, 100}, []uint64{1, 1})
	cur := snap([]uint64{300, 200}, []uint64{2, 2})
	out := Render(prev, cur, time.Second, 10, 0)

	// DPU 0 advanced 200 cycles, DPU 1 advanced 100: the busiest DPU
	// fills the bar, the other fills half of it.
	if !strings.Contains(out, "dpu0    ##########          200 cyc") {
		t.Errorf("dpu0 row wrong:\n%s", out)
	}
	if !strings.Contains(out, "dpu1    #####.....          100 cyc") {
		t.Errorf("dpu1 row wrong:\n%s", out)
	}
	if !strings.Contains(out, "total Δcycles: 300 across 2 DPUs") {
		t.Errorf("total line wrong:\n%s", out)
	}
	if !strings.Contains(out, "to_dpu=4096B from_dpu=1024B") {
		t.Errorf("xfer line wrong:\n%s", out)
	}
	if !strings.Contains(out, "waves=7") || !strings.Contains(out, "down_dpus=1") {
		t.Errorf("exec line wrong:\n%s", out)
	}
	if !strings.Contains(out, "yolo_conv000") {
		t.Errorf("layer rows missing:\n%s", out)
	}

	// The fault counter under the name a real System registers it: seed 1
	// dooms DPU 1 of 4, whose row and rank then read faults=.
	reg := metrics.NewRegistry()
	sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.EnableMetrics(reg)
	sys.InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3})
	if _, err := sys.LaunchOn(4, 1, func(*dpu.Tasklet) error { return nil }); err == nil {
		t.Fatal("no DPU died")
	}
	live := reg.Snapshot()
	for _, rankSize := range []int{0, 2} {
		out := Render(metrics.Snapshot{}, live, time.Second, 10, rankSize)
		if !strings.Contains(out, "faults=") {
			t.Errorf("rank size %d: no faults= for the dead DPU:\n%s", rankSize, out)
		}
	}
}

func TestRenderEmptySnapshot(t *testing.T) {
	out := Render(metrics.Snapshot{}, metrics.Snapshot{}, time.Second, 10, 0)
	if !strings.Contains(out, "no pim_dpu_cycles_total series yet") {
		t.Errorf("empty-snapshot hint missing:\n%s", out)
	}
}

// TestRenderByRank folds four DPUs into two ranks of two and checks the
// per-rank min/mean/max spread: rank 0 advanced {200, 100}, rank 1
// {400, 0}, so rank 1's fuller mean owns the full bar and its spread is
// the widest.
func TestRenderByRank(t *testing.T) {
	prev := snap([]uint64{100, 100, 100, 100}, []uint64{1, 1, 1, 1})
	cur := snap([]uint64{300, 200, 500, 100}, []uint64{2, 2, 2, 2})
	out := Render(prev, cur, time.Second, 10, 2)

	if !strings.Contains(out, "rank0   #######... min          100  mean          150  max          200 cyc  dpus=2") {
		t.Errorf("rank0 row wrong:\n%s", out)
	}
	if !strings.Contains(out, "rank1   ########## min            0  mean          200  max          400 cyc  dpus=2") {
		t.Errorf("rank1 row wrong:\n%s", out)
	}
	// No per-DPU rows in rank mode; the totals line still sums every DPU.
	if strings.Contains(out, "dpu0 ") {
		t.Errorf("per-DPU rows leaked into rank mode:\n%s", out)
	}
	if !strings.Contains(out, "total Δcycles: 700 across 4 DPUs") {
		t.Errorf("total line wrong:\n%s", out)
	}
}

func TestBarMinimumFill(t *testing.T) {
	// A nonzero delta never renders as an empty bar.
	if got := bar(1, 1000, 10); !strings.HasPrefix(got, "#") {
		t.Errorf("bar(1,1000,10) = %q, want leading #", got)
	}
	if got := bar(0, 1000, 10); got != ".........." {
		t.Errorf("bar(0,1000,10) = %q", got)
	}
}

// TestPollClientTimeout pins the timeout derivation: twice the poll
// interval, floored at one second so fast intervals don't produce
// unservable deadlines.
func TestPollClientTimeout(t *testing.T) {
	cases := []struct {
		interval, want time.Duration
	}{
		{100 * time.Millisecond, time.Second},
		{500 * time.Millisecond, time.Second},
		{time.Second, 2 * time.Second},
		{5 * time.Second, 10 * time.Second},
	}
	for _, c := range cases {
		if got := pollClient(c.interval).Timeout; got != c.want {
			t.Errorf("pollClient(%v).Timeout = %v, want %v", c.interval, got, c.want)
		}
	}
}

// TestFetchTimesOutOnStalledEndpoint reproduces the hung-live-view bug:
// a metrics endpoint that accepts the connection but never responds must
// fail the fetch once the derived timeout elapses, not block forever.
func TestFetchTimesOutOnStalledEndpoint(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // hold the response until the test ends
	}))
	// Release the handler before Close: httptest's Close waits for
	// outstanding requests, so the reverse order deadlocks.
	defer func() {
		close(stall)
		srv.Close()
	}()

	client := &http.Client{Timeout: 50 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := fetch(client, srv.URL)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch returned nil error from a stalled endpoint")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch still blocked on a stalled endpoint after 2s")
	}
}

// TestRenderSlowest covers the slowest-requests panel: populated rows,
// model fallback to the root span name, dump lines, and the empty case.
func TestRenderSlowest(t *testing.T) {
	sums := []trace.TraceSummary{
		{ID: 7, Name: "infer", Model: "yolov3", BatchSize: 4,
			Duration: 1520 * time.Microsecond, QueueWait: 310 * time.Microsecond, Spans: 42},
		{ID: 3, Name: "profile_gemm", // no model attr: falls back to name
			Duration: 800 * time.Microsecond, Spans: 9},
	}
	dumps := []*trace.DumpRecord{
		{Reason: "slo_breach:model=yolov3", TraceIDs: []trace.TraceID{7, 3}},
	}
	out := RenderSlowest(sums, dumps)
	if !strings.Contains(out, "slowest recent requests:") {
		t.Errorf("missing panel header:\n%s", out)
	}
	for _, want := range []string{"7", "yolov3", "1.52ms", "310µs", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("panel missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "profile_gemm") {
		t.Errorf("model fallback to span name missing:\n%s", out)
	}
	if !strings.Contains(out, "dump: slo_breach:model=yolov3 (2 traces)") {
		t.Errorf("dump line missing:\n%s", out)
	}
	if got := RenderSlowest(nil, nil); !strings.Contains(got, "(no traces retained yet)") {
		t.Errorf("empty case = %q", got)
	}
}
