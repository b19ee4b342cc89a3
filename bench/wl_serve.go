package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/yolo"
)

// serve_closed: upmem-serve as a subprocess, two closed-loop clients on
// two keep-alive connections POSTing explicit input tensors. One
// operation is one request; one item is one request.
var serveClosed = workload{
	name:    "serve_closed",
	prepare: func(o options) error { return buildServer(o.outDir) },
	setup:   setupServe,
}

const (
	serveClients = 2
	servePool    = 64
	serveWarmups = 200
	serveReplays = 25
	serveModel   = "tiny"
	serveDPUs    = 8
	// serveTasklets is upmem-serve's -tasklets default, which the
	// in-process mirror must match.
	serveTasklets = 11
	// serveCacheBytes is upmem-serve's -weight-cache default.
	serveCacheBytes = 4 << 20
)

// serveNetConfig mirrors cmd/upmem-serve's parseModels for "tiny=64x32".
func serveNetConfig() yolo.Config {
	return yolo.Config{InputSize: 64, Classes: 4, WidthDiv: 32, Seed: 1}
}

// serveArgs is the server's command line. -max-batch equals the client
// count so a wave closes when it fills, not on the 20 ms batching timer.
func serveArgs() []string {
	return []string{"-dpus", fmt.Sprint(serveDPUs), "-models", serveModel + "=64x32", "-max-batch", fmt.Sprint(serveClients)}
}

// inferReply is the part of upmem-serve's /v1/infer response the
// harness checks or measures.
type inferReply struct {
	Model      string `json:"model"`
	Detections []struct {
		X, Y, W, H float64
		Class      int
		Confidence float64
	} `json:"detections"`
	BatchSize  int     `json:"batch_size"`
	QueueUS    float64 `json:"queue_us"`
	LatencyUS  float64 `json:"latency_us"`
	DPUSeconds float64 `json:"dpu_seconds"`
}

// serveSample is one answered request as the traced run needs it.
type serveSample struct {
	clientMS, queueMS, latencyMS float64
	batch                        int
}

type serveState struct {
	o      options
	srv    *server
	net    *yolo.Network
	scenes []*yolo.Tensor
	bodies [][]byte
	want   [][]yolo.Detection
	http   *http.Client

	mu         sync.Mutex
	dpuSeconds map[int]float64 // batch size -> first reply's dpu_seconds
	samples    []serveSample   // traced requests only
}

func setupServe(o options) (*instance, error) {
	net, err := yolo.New(serveNetConfig())
	if err != nil {
		return nil, err
	}
	pool, warm := servePool, serveWarmups
	if o.smoke {
		pool, warm = 4, 8
	}
	s := &serveState{o: o, net: net, dpuSeconds: make(map[int]float64),
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
		}}
	for i := 0; i < pool; i++ {
		scene := yolo.SyntheticScene(net.Cfg.InputSize, o.seed*1_000_003+int64(i))
		ref, _, err := net.Forward(scene, nil)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Model string  `json:"model"`
			Input []int16 `json:"input"`
		}{serveModel, scene.Data})
		if err != nil {
			return nil, err
		}
		s.scenes, s.bodies, s.want = append(s.scenes, scene), append(s.bodies, body), append(s.want, ref.Detections)
	}
	bin, err := serverBin(o.outDir)
	if err != nil {
		return nil, err
	}
	if s.srv, err = startServer(bin, serveArgs()...); err != nil {
		return nil, err
	}
	inst := &instance{
		clients: serveClients,
		items:   1,
		op:      s.request,
		sim:     s.sim,
		layers:  s.layers,
		close:   s.close,
	}
	// Warm-up cycles the pool, so every scene's detections have been
	// held against the host reference before timing.
	if err := warmUp(inst, warm/serveClients); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

func (s *serveState) close() {
	s.http.CloseIdleConnections()
	s.srv.stop()
}

// sim reads the server's cumulative simulated-clock counters.
func (s *serveState) sim() (simCounters, error) {
	p, err := scrapeMetrics(s.srv.client, s.srv.base)
	if err != nil {
		return simCounters{}, err
	}
	return simCounters{
		cycles:    counterSum(p, "pim_exec_cycles_total"),
		xferBytes: counterSum(p, "pim_host_xfer_bytes_total"),
		xferOps:   counterSum(p, "pim_host_xfer_ops_total"),
		waves:     counterSum(p, "pim_exec_waves_total"),
		retries:   counterSum(p, "pim_exec_retries_total"),
		page:      p,
	}, nil
}

// request is one operation: POST one pool scene, require 200, require
// the host reference's detections exactly, and require the simulated
// time of the wave to equal the first wave's of the same batch size.
func (s *serveState) request(client, i int, sp spanCtx) error {
	scene := (client + i*serveClients) % len(s.bodies)
	id := sp.begin("serve.request")
	t0 := time.Now()
	resp, err := s.http.Post(s.srv.base+"/v1/infer", "application/json", bytes.NewReader(s.bodies[scene]))
	if err != nil {
		sp.end(id)
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var reply inferReply
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &reply)
	}
	clientMS := float64(time.Since(t0)) / 1e6
	sp.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	want := s.want[scene]
	if reply.Model != serveModel || len(reply.Detections) != len(want) {
		return fmt.Errorf("scene %d: %d detections from %q, host reference has %d", scene, len(reply.Detections), reply.Model, len(want))
	}
	for j, d := range reply.Detections {
		if (yolo.Detection{X: d.X, Y: d.Y, W: d.W, H: d.H, Class: d.Class, Confidence: d.Confidence}) != want[j] {
			return fmt.Errorf("scene %d: detection %d differs from the host reference", scene, j)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, seen := s.dpuSeconds[reply.BatchSize]
	if !seen {
		s.dpuSeconds[reply.BatchSize] = reply.DPUSeconds
	} else if reply.DPUSeconds != first {
		return fmt.Errorf("scene %d: simulated %.9gs differs from the first batch-%d wave's %.9gs", scene, reply.DPUSeconds, reply.BatchSize, first)
	}
	if sp.rec != nil {
		s.samples = append(s.samples, serveSample{clientMS, reply.QueueUS / 1e3, reply.LatencyUS / 1e3, reply.BatchSize})
	}
	return nil
}

// mirror is the in-process copy of what one server wave executes below
// the serve layer: the same network on the same system shape, tasklets
// and resident-weight cache, with the metrics registry wired as the
// server wires it.
type mirror struct {
	sys *host.System
	r   *gemm.Runner
}

func newMirror(net *yolo.Network) (*mirror, error) {
	sys, err := host.NewSystem(serveDPUs, host.DefaultConfig(dpu.O3))
	if err != nil {
		return nil, err
	}
	sys.EnableMetrics(metrics.NewRegistry())
	cache, err := exec.NewWeightCache(sys, serveCacheBytes)
	if err != nil {
		sys.Close()
		return nil, err
	}
	maxK, maxN := net.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, Tasklets: serveTasklets})
	if err == nil {
		err = r.EnableBatch(net.MaxFilters())
	}
	if err != nil {
		sys.Close()
		return nil, err
	}
	r.EnableResidency(cache, serveModel)
	return &mirror{sys, r}, nil
}

func (s *serveState) layers(t *traced) error {
	s.mu.Lock()
	samples := s.samples
	s.mu.Unlock()
	if len(samples) == 0 {
		return fmt.Errorf("traced window kept no request samples")
	}
	var client, transport, queue, execMS, batch []float64
	for _, m := range samples {
		client = append(client, m.clientMS)
		transport = append(transport, m.clientMS-m.latencyMS)
		queue = append(queue, m.queueMS)
		execMS = append(execMS, m.latencyMS-m.queueMS)
		batch = append(batch, float64(m.batch))
	}
	t.set("serve.request_p99_ms", percentile(client, 0.99))
	t.set("serve.transport_p50_ms", median(transport))
	t.set("serve.queue_wait_p50_ms", median(queue))
	t.set("serve.exec_p50_ms", median(execMS))
	t.set("serve.batch_mean", mean(batch))
	t.set("serve.start_ms", s.srv.startMS)
	t.set("serve.peak_rss_mb", peakRSSMB(s.srv.cmd.Process.Pid))
	t.set("gemm.calls_per_op", t.win.sim.waves/float64(t.win.attempted))
	grew := func(name string) float64 { return counterDelta(t.win.before.page, t.win.after.page, name) }
	t.set("serve.requests", grew("pim_serve_requests_total"))
	t.set("serve.rejected", grew("pim_serve_rejected_total"))
	hits, misses := grew("pim_wcache_hits_total"), grew("pim_wcache_misses_total")
	t.set("exec.wcache_hit_ratio", ratio(hits, hits+misses))
	t.set("exec.wcache_delivered_bytes_timed", grew("pim_wcache_delivered_bytes_total"))

	// Replay what a wave runs below the serve layer: ForwardBatch of two
	// pool scenes on the mirror, below requests from across the window.
	mir, err := newMirror(s.net)
	if err != nil {
		return err
	}
	defer mir.sys.Close()
	pair := func(i int) []*yolo.Tensor {
		return []*yolo.Tensor{s.scenes[(2*i)%len(s.scenes)], s.scenes[(2*i+1)%len(s.scenes)]}
	}
	for i := 0; i < 3; i++ { // scatter the weights, touch the MRAM pages
		if _, _, err := s.net.ForwardBatch(pair(i), mir.r); err != nil {
			return fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	for i, parent := range t.rec.pick("serve.request", serveReplays) {
		var rerr error
		t.rec.replay("yolo.forward_batch_b2", parent.ID, parent.Op, func(int) {
			_, _, rerr = s.net.ForwardBatch(pair(i), mir.r)
		})
		if rerr != nil {
			return fmt.Errorf("mirror replay: %w", rerr)
		}
	}
	ix := indexSpans(t.rec.spans)
	b2 := median(ix.durMS("yolo.forward_batch_b2"))
	t.set("yolo.forward_batch_b2_ms", b2)
	t.set("serve.self_p50_ms", median(execMS)-b2)
	return nil
}
