package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
)

// tinySpec is a minimal servable network: the full 75-conv graph at the
// smallest legal resolution and width, so tests stay fast.
func tinySpec(name string) modelSpec {
	return modelSpec{name: name, size: 32, widthDiv: 64, classes: 2, seed: 1}
}

func newTestServer(t *testing.T, cfg serveConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.dpus == 0 {
		cfg.dpus = 4
	}
	if cfg.tasklets == 0 {
		cfg.tasklets = 4
	}
	if cfg.opt == 0 {
		cfg.opt = dpu.O3
	}
	if cfg.maxBatch == 0 {
		cfg.maxBatch = 4
	}
	if cfg.maxWait == 0 {
		cfg.maxWait = 10 * time.Millisecond
	}
	if cfg.queueCap == 0 {
		cfg.queueCap = 16
	}
	if cfg.cacheBytes == 0 {
		cfg.cacheBytes = 1 << 20
	}
	if cfg.reg == nil {
		cfg.reg = metrics.NewRegistry()
	}
	if cfg.specs == nil {
		cfg.specs = []modelSpec{tinySpec("tiny")}
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close() // first: no handlers in flight when the drain starts
		s.Stop()
	})
	return s, ts
}

func postInfer(t *testing.T, url string, body inferRequest) (*http.Response, inferResponse) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestServeSingleInfer(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{})
	resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Model != "tiny" || out.BatchSize < 1 {
		t.Errorf("response %+v", out)
	}
	if out.DPUSeconds <= 0 {
		t.Errorf("no DPU time reported: %+v", out)
	}
}

// TestServeDeterministic: the same seed must produce the same
// detections on repeated requests — the wave path is bit-exact, so the
// decoded boxes are identical too.
func TestServeDeterministic(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{})
	_, first := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 11})
	for i := 0; i < 2; i++ {
		resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 11})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
		if fmt.Sprint(out.Detections) != fmt.Sprint(first.Detections) {
			t.Fatalf("call %d detections diverged:\n%v\nvs\n%v", i, out.Detections, first.Detections)
		}
	}
}

// TestServeWarmSkipsWeightDelivery pins the tentpole property end to
// end: after the first request scatters the model, further requests
// advance the cache's delivered-bytes counter by zero.
func TestServeWarmSkipsWeightDelivery(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, serveConfig{reg: reg})
	delivered := reg.Counter("pim_wcache_delivered_bytes_total")

	if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d", resp.StatusCode)
	}
	cold := delivered.Value()
	if cold == 0 {
		t.Fatal("cold request delivered no weight bytes")
	}
	for i := 0; i < 3; i++ {
		if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, resp.StatusCode)
		}
	}
	if got := delivered.Value(); got != cold {
		t.Errorf("warm requests delivered %d extra weight bytes", got-cold)
	}
}

// TestServeBatching: concurrent requests against one model coalesce
// into shared waves instead of running one wave each.
func TestServeBatching(t *testing.T) {
	const nReq = 8
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, serveConfig{reg: reg, maxBatch: 4, maxWait: 50 * time.Millisecond})

	// Warm first so the concurrent burst measures steady-state batching.
	postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: 0})

	var wg sync.WaitGroup
	batches := make([]int, nReq)
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)})
			if resp.StatusCode == http.StatusOK {
				batches[i] = out.BatchSize
			}
		}(i)
	}
	wg.Wait()
	coalesced := false
	for i, b := range batches {
		if b == 0 {
			t.Fatalf("request %d failed", i)
		}
		if b > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no request shared a wave; dynamic batching never coalesced")
	}
}

// TestServeBackpressure: with a one-slot queue and the engine pinned
// busy, excess load must be refused with 503 + Retry-After, not queued
// without bound. Holding engineMu stalls the batcher mid-wave, so the
// saturation is deterministic: one request in flight, one queued,
// everything else shed.
func TestServeBackpressure(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, serveConfig{
		reg: reg, queueCap: 1, maxBatch: 1, maxWait: time.Millisecond,
	})
	rejected := reg.LabeledCounter("pim_serve_rejected_total", "model", "tiny")

	s.engineMu.Lock()
	const nReq = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(inferRequest{Model: "tiny", Seed: int64(i)})
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}(i)
	}
	// Wait for the shed responses to land while the engine is stalled,
	// then release it so the admitted requests complete.
	deadline := time.Now().Add(5 * time.Second)
	for rejected.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.engineMu.Unlock()
	wg.Wait()
	if codes[http.StatusOK] == 0 {
		t.Error("every request was shed; some should have been admitted")
	}
	if codes[http.StatusServiceUnavailable] == 0 {
		t.Errorf("no request was shed under a 1-deep queue: %v", codes)
	}
	if rejected.Value() == 0 {
		t.Error("rejected counter did not advance")
	}
}

// TestServeMultiModel: two models co-resident in one cache both answer
// correctly under interleaved load, and the cache tracks both.
func TestServeMultiModel(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{
		specs: []modelSpec{tinySpec("a"), tinySpec("b")},
	})
	for i := 0; i < 2; i++ {
		for _, name := range []string{"a", "b"} {
			resp, out := postInfer(t, ts.URL, inferRequest{Model: name, Seed: 5})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("model %s: status %d", name, resp.StatusCode)
			}
			if out.Model != name {
				t.Errorf("model %s answered as %s", name, out.Model)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models struct {
		Models   []modelJSON `json:"models"`
		Resident int64       `json:"cache_resident_bytes"`
		LRU      []string    `json:"cache_lru_order"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 2 {
		t.Errorf("models endpoint listed %d models, want 2", len(models.Models))
	}
	if models.Resident == 0 {
		t.Error("no resident bytes after serving both models")
	}
	if len(models.LRU) != 2 {
		t.Errorf("cache LRU order %v, want both models", models.LRU)
	}
}

// TestServePlannedMultiTenant is the auto-mapper's serving smoke test:
// two models co-resident on one planned (-plan) server answer
// interleaved requests, and every detection matches what the
// fixed-tasklets server produces for the same seed — the planner moves
// latency, never results.
func TestServePlannedMultiTenant(t *testing.T) {
	specs := []modelSpec{tinySpec("a"), tinySpec("b")}
	_, fixedTS := newTestServer(t, serveConfig{specs: specs})
	_, plannedTS := newTestServer(t, serveConfig{specs: specs, autoMap: true})
	for i := 0; i < 2; i++ {
		for _, name := range []string{"a", "b"} {
			req := inferRequest{Model: name, Seed: int64(20 + i)}
			fResp, fOut := postInfer(t, fixedTS.URL, req)
			pResp, pOut := postInfer(t, plannedTS.URL, req)
			if fResp.StatusCode != http.StatusOK || pResp.StatusCode != http.StatusOK {
				t.Fatalf("model %s seed %d: status fixed=%d planned=%d",
					name, req.Seed, fResp.StatusCode, pResp.StatusCode)
			}
			if pOut.DPUSeconds <= 0 {
				t.Errorf("model %s: planned wave reported no DPU time", name)
			}
			if fmt.Sprint(pOut.Detections) != fmt.Sprint(fOut.Detections) {
				t.Errorf("model %s seed %d: planned detections diverged:\n%v\nvs fixed\n%v",
					name, req.Seed, pOut.Detections, fOut.Detections)
			}
		}
	}
}

// TestServeStatsQuantiles: after a handful of requests the stats
// endpoint reports nonzero request counts and latency quantiles.
func TestServeStatsQuantiles(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{})
	for i := 0; i < 5; i++ {
		if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Seed: int64(i)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Stats []statJSON `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Stats) != 1 {
		t.Fatalf("stats for %d models, want 1", len(stats.Stats))
	}
	st := stats.Stats[0]
	if st.Requests != 5 {
		t.Errorf("requests = %d, want 5", st.Requests)
	}
	if st.P50US == 0 || st.P99US == 0 {
		t.Errorf("zero latency quantiles: %+v", st)
	}
	if st.P50US > st.P99US {
		t.Errorf("p50 %d > p99 %d", st.P50US, st.P99US)
	}
}

// TestServeErrors covers the request-validation paths.
func TestServeErrors(t *testing.T) {
	s, ts := newTestServer(t, serveConfig{})
	if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "nope"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Input: []int16{1, 2, 3}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short input: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET infer: status %d, want 405", resp.StatusCode)
	}
	// A correct explicit input works: full-size flat tensor.
	size := s.models["tiny"].spec.size
	input := make([]int16, 3*size*size)
	if resp, _ := postInfer(t, ts.URL, inferRequest{Model: "tiny", Input: input}); resp.StatusCode != http.StatusOK {
		t.Errorf("explicit input: status %d, want 200", resp.StatusCode)
	}
}

func TestParseModels(t *testing.T) {
	specs, err := parseModels("tiny=64x32, lite=96x16")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].name != "tiny" || specs[0].size != 64 ||
		specs[0].widthDiv != 32 || specs[1].name != "lite" || specs[1].size != 96 {
		t.Errorf("parsed %+v", specs)
	}
	for _, bad := range []string{"tiny", "tiny=64", "tiny=ax32", "tiny=64xb"} {
		if _, err := parseModels(bad); err == nil {
			t.Errorf("parseModels(%q) accepted", bad)
		}
	}
}

// paddedInfer is a well-formed /v1/infer body of exactly n bytes.
func paddedInfer(n int64) []byte {
	head, tail := `{"model":"tiny","seed":1`, `}`
	return []byte(head + strings.Repeat(" ", int(n)-len(head)-len(tail)) + tail)
}

// TestInferBodyBounded: the request body is read through a bound sized
// from the largest configured model's input, so an oversized upload is
// answered 413 instead of being buffered whole (even when its value ends
// before the bound), and hostile bodies get the statuses encoding/json's
// decode gave them.
func TestInferBodyBounded(t *testing.T) {
	big := tinySpec("big")
	big.size = 64
	s, ts := newTestServer(t, serveConfig{specs: []modelSpec{tinySpec("tiny"), big}})
	if want := int64(3*64*64*8 + 1024); s.maxBody != want {
		t.Fatalf("maxBody = %d, want %d (the 64x64 model's input)", s.maxBody, want)
	}
	for _, c := range []struct {
		name string
		body []byte
		code int
	}{
		{"well under", paddedInfer(64), http.StatusOK},
		{"at the bound", paddedInfer(s.maxBody), http.StatusOK},
		{"one byte over", paddedInfer(s.maxBody + 1), http.StatusRequestEntityTooLarge},
		{"over, value ends early", []byte(`{"model":"tiny"}` + strings.Repeat(" ", int(s.maxBody))), http.StatusRequestEntityTooLarge},
		{"truncated object", []byte(`{"model":"tiny","seed":1`), http.StatusBadRequest},
		{"top-level array", []byte(`[{"model":"tiny"}]`), http.StatusBadRequest},
		{"top-level string", []byte(`"tiny"`), http.StatusBadRequest},
		{"top-level null", []byte(`null`), http.StatusNotFound},
		{"top-level nul", []byte(`nul`), http.StatusBadRequest},
		{"nested junk", []byte(`{"x":[{"y":[1,-2.5e3,null,"\u00e9"]},{}],"model":"tiny"}`), http.StatusOK},
		{"broken junk", []byte(`{"x":[{"y":01}],"model":"tiny"}`), http.StatusBadRequest},
		{"MODEL key", []byte(`{"MODEL":"tiny","seed":1}`), http.StatusOK},
		{"Input key", []byte(`{"model":"tiny","Input":[1,2,3]}`), http.StatusBadRequest},
		{"fractional seed", []byte(`{"model":"tiny","seed":1.5}`), http.StatusBadRequest},
		{"leading zero", []byte(`{"model":"tiny","input":[` + strings.Repeat("0,", 3*32*32-1) + `01]}`), http.StatusBadRequest},
		{"lone minus", []byte(`{"model":"tiny","input":[` + strings.Repeat("0,", 3*32*32-1) + `-]}`), http.StatusBadRequest},
		{"trailing comma", []byte(`{"model":"tiny","input":[` + strings.Repeat("0,", 3*32*32-1) + `]}`), http.StatusBadRequest},
		{"truncated key", []byte(`{"model`), http.StatusBadRequest},
		{"nesting 10000", []byte(`{"model":"tiny","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`), http.StatusOK},
		{"nesting 10001", []byte(`{"model":"tiny","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s (%d bytes): status %d, want %d", c.name, len(c.body), resp.StatusCode, c.code)
		}
	}
}

// TestListingsSorted: /v1/models and /v1/stats list models by name, the
// same way on every call, whatever order -models gave them in.
func TestListingsSorted(t *testing.T) {
	_, ts := newTestServer(t, serveConfig{specs: []modelSpec{tinySpec("zeta"), tinySpec("alpha"), tinySpec("mid")}})
	want := []string{"alpha", "mid", "zeta"}
	for i := 0; i < 20; i++ {
		var models struct {
			Models []modelJSON `json:"models"`
		}
		var stats struct {
			Stats []statJSON `json:"stats"`
		}
		for path, into := range map[string]any{"/v1/models": &models, "/v1/stats": &stats} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(into)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		var gotModels, gotStats []string
		for _, m := range models.Models {
			gotModels = append(gotModels, m.Name)
		}
		for _, st := range stats.Stats {
			gotStats = append(gotStats, st.Model)
		}
		if !slices.Equal(gotModels, want) || !slices.Equal(gotStats, want) {
			t.Fatalf("call %d: /v1/models lists %v, /v1/stats lists %v, want %v", i, gotModels, gotStats, want)
		}
	}
}
