package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
	"pimdnn/internal/yolo"
)

// FuzzInferBody holds decodeInferBody to encoding/json's decode of the
// same bytes into the same fields with Input a plain []int16: both
// accept or both reject, and an accepted body decodes to equal values,
// a nil input told apart from an empty one. The checked-in corpus
// (testdata/fuzz/FuzzInferBody) covers the rules the input parser keeps.
func FuzzInferBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeInferBody(bytes.NewReader(body))
		var want struct {
			Model string  `json:"model"`
			Seed  int64   `json:"seed"`
			Input []int16 `json:"input,omitempty"`
		}
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeInferBody error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Model != want.Model || got.Seed != want.Seed ||
			(got.Input == nil) != (want.Input == nil) || !slices.Equal([]int16(got.Input), want.Input) {
			t.Fatalf("%q: decoded (%q, %d, %#v), encoding/json (%q, %d, %#v)",
				body, got.Model, got.Seed, got.Input, want.Model, want.Seed, want.Input)
		}
	})
}

// BenchmarkServeInfer is the serve_closed workload in one process: the
// tiny=64x32 model on 8 DPUs with -max-batch 2 and upmem-serve's other
// flag defaults (every request traced), and two clients posting
// explicit inputs over keep-alive connections. One op is one answered
// request. `make profile-serve` profiles it.
func BenchmarkServeInfer(b *testing.B) {
	const clients = 2
	specs, err := parseModels("tiny=64x32")
	if err != nil {
		b.Fatal(err)
	}
	s, err := newServer(serveConfig{
		dpus: 8, tasklets: 11, opt: dpu.O3, specs: specs,
		maxBatch: clients, maxWait: 20 * time.Millisecond, queueCap: 64, cacheBytes: 4 << 20,
		reg: metrics.NewRegistry(), traceSample: 1, traceRing: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.Stop()
	}()
	bodies := make([][]byte, 8)
	for i := range bodies {
		scene := yolo.SyntheticScene(specs[0].size, int64(i+1))
		if bodies[i], err = json.Marshal(inferRequest{Model: specs[0].name, Input: scene.Data}); err != nil {
			b.Fatal(err)
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	post := func(body []byte) error {
		resp, err := client.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return err
	}
	for _, body := range bodies { // the first wave scatters the weights
		if err := post(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N) && errs[c] == nil; i = next.Add(1) - 1 {
				errs[c] = post(bodies[i%int64(len(bodies))])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
}
