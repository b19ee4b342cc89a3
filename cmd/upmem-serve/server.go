package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/plan"
	"pimdnn/internal/trace"
	"pimdnn/internal/yolo"
)

// The serving core: one simulated DPU system hosts several models'
// weights in a shared residency cache, and per-model batchers coalesce
// concurrent requests into image-per-DPU waves. A request's life:
//
//	handler → admission (bounded queue, 503 + Retry-After when full)
//	        → batcher (coalesce until maxBatch or maxWait elapses)
//	        → engine (serialized: rebind residency, ForwardBatch)
//	        → response (detections + latency accounting)
//
// The first wave of a model scatters its weights into the cache arena;
// subsequent waves skip the transfer, so steady-state serving moves
// only activations. The cache's LRU budget arbitrates between models
// when the configured arena cannot hold all of them at once.

// modelSpec is one parsed -models entry.
type modelSpec struct {
	name     string
	size     int // input resolution
	widthDiv int
	classes  int
	seed     int64
}

// serveConfig collects everything newServer needs.
type serveConfig struct {
	dpus     int
	tasklets int
	// autoMap replaces the fixed -tasklets constant with the
	// cost-model auto-mapper: the runner re-plans tasklet count per
	// layer shape (and per wave size on the batch path).
	autoMap    bool
	opt        dpu.OptLevel
	specs      []modelSpec
	maxBatch   int           // images coalesced into one wave
	maxWait    time.Duration // batching deadline after the first request
	queueCap   int           // per-model admission bound
	cacheBytes int64         // weight-cache arena budget per DPU
	reg        *metrics.Registry

	// Request tracing: traceSample keeps 1 in N requests (0 disables
	// tracing entirely), traceRing sizes the flight recorder, slo
	// triggers a flight-recorder dump when a request's end-to-end
	// latency exceeds it, and onDump receives every dump record.
	traceSample int
	traceRing   int
	slo         time.Duration
	onDump      func(*trace.DumpRecord)
}

// request is one admitted inference waiting for its wave.
type request struct {
	input *yolo.Tensor
	enq   time.Time
	done  chan response
	// sp is the request's root span (nil when the request was sampled
	// out or tracing is off).
	sp *trace.Span
}

type response struct {
	result  *yolo.Result
	stats   *yolo.ForwardStats
	batch   int
	queueUS uint64
	err     error
}

// model is one served network and its batching state.
type model struct {
	spec  modelSpec
	net   *yolo.Network
	queue chan *request

	requests *metrics.Counter
	rejected *metrics.Counter
	latency  *metrics.Histogram
	queueLat *metrics.Histogram
	batchSz  *metrics.Histogram
	depth    *metrics.Gauge
}

// server owns the DPU system, the residency cache, and the batchers.
type server struct {
	cfg    serveConfig
	sys    *host.System
	runner *gemm.Runner
	cache  *exec.WeightCache
	models map[string]*model
	// names is the sorted model list (stable listings); maxBody bounds an
	// /v1/infer body: the largest model's input as JSON int16s (at most 7
	// bytes each, 8 allowed) plus 1 KB for the other fields.
	names   []string
	maxBody int64

	// engineMu serializes DPU-system access across model batchers.
	engineMu sync.Mutex

	// tracer mints per-request traces; nil when -trace-sample is 0.
	tracer *trace.Tracer

	inflight *metrics.Gauge

	quit chan struct{}
	wg   sync.WaitGroup
}

// latencyBoundsUS covers sub-millisecond cache hits through multi-second
// cold waves.
var latencyBoundsUS = []uint64{
	100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000,
	100000, 200000, 500000, 1000000, 2000000, 5000000, 10000000,
}

func batchBounds(maxBatch int) []uint64 {
	b := make([]uint64, maxBatch)
	for i := range b {
		b[i] = uint64(i + 1)
	}
	return b
}

// newServer builds the system, the shared weight cache, one batch-mode
// runner sized for every model, and a batcher goroutine per model.
func newServer(cfg serveConfig) (*server, error) {
	if cfg.maxBatch < 1 || cfg.queueCap < 1 {
		return nil, fmt.Errorf("serve: maxBatch %d and queueCap %d must be positive", cfg.maxBatch, cfg.queueCap)
	}
	if len(cfg.specs) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	hcfg := host.DefaultConfig(cfg.opt)
	sys, err := host.NewSystem(cfg.dpus, hcfg)
	if err != nil {
		return nil, err
	}
	if cfg.reg != nil {
		sys.EnableMetrics(cfg.reg)
	}
	cache, err := exec.NewWeightCache(sys, cfg.cacheBytes)
	if err != nil {
		sys.Close()
		return nil, err
	}

	s := &server{
		cfg:    cfg,
		sys:    sys,
		cache:  cache,
		models: make(map[string]*model),
		quit:   make(chan struct{}),
	}
	if cfg.reg != nil {
		s.inflight = cfg.reg.Gauge("pim_serve_inflight")
	}
	if cfg.traceSample > 0 {
		s.tracer = trace.NewTracer(trace.TracerConfig{
			Sample: cfg.traceSample,
			Ring:   cfg.traceRing,
			OnDump: cfg.onDump,
		})
	}

	// Size one runner to the union of every model's GEMM bounds.
	var maxK, maxN, maxM int
	for _, spec := range cfg.specs {
		if _, dup := s.models[spec.name]; dup {
			sys.Close()
			return nil, fmt.Errorf("serve: duplicate model %q", spec.name)
		}
		net, err := yolo.New(yolo.Config{
			InputSize: spec.size, Classes: spec.classes, WidthDiv: spec.widthDiv, Seed: spec.seed,
		})
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("serve: model %q: %w", spec.name, err)
		}
		k, n := net.GEMMBounds()
		if k > maxK {
			maxK = k
		}
		if n > maxN {
			maxN = n
		}
		if f := net.MaxFilters(); f > maxM {
			maxM = f
		}
		m := &model{spec: spec, net: net, queue: make(chan *request, cfg.queueCap)}
		if cfg.reg != nil {
			m.requests = cfg.reg.LabeledCounter("pim_serve_requests_total", "model", spec.name)
			m.rejected = cfg.reg.LabeledCounter("pim_serve_rejected_total", "model", spec.name)
			m.latency = cfg.reg.LabeledHistogram("pim_serve_latency_us", "model", spec.name, latencyBoundsUS)
			m.queueLat = cfg.reg.LabeledHistogram("pim_serve_queue_wait_us", "model", spec.name, latencyBoundsUS)
			m.batchSz = cfg.reg.LabeledHistogram("pim_serve_batch_size", "model", spec.name, batchBounds(cfg.maxBatch))
			m.depth = cfg.reg.LabeledGauge("pim_serve_queue_depth", "model", spec.name)
		}
		s.models[spec.name] = m
		s.names = append(s.names, spec.name)
		s.maxBody = max(s.maxBody, 3*int64(spec.size)*int64(spec.size)*8+1024)
	}
	sort.Strings(s.names)
	rcfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN}
	if cfg.autoMap {
		rcfg.Planner = plan.New(sys)
	} else {
		rcfg.Tasklets = cfg.tasklets
	}
	runner, err := gemm.NewRunner(sys, rcfg)
	if err != nil {
		sys.Close()
		return nil, err
	}
	if err := runner.EnableBatch(maxM); err != nil {
		sys.Close()
		return nil, err
	}
	s.runner = runner

	for _, m := range s.models {
		s.wg.Add(1)
		go s.batcher(m)
	}
	return s, nil
}

// Stop drains the batchers (queued requests still get answers) and
// releases the system. Callers stop the HTTP listener first so no new
// requests race the drain.
func (s *server) Stop() {
	close(s.quit)
	s.wg.Wait()
	s.sys.Close()
}

// batcher coalesces one model's requests into waves: the first arrival
// opens a window that closes at maxWait or maxBatch, whichever first.
func (s *server) batcher(m *model) {
	defer s.wg.Done()
	for {
		select {
		case req := <-m.queue:
			s.collectAndRun(m, req)
		case <-s.quit:
			// Drain stragglers admitted before the listener stopped.
			for {
				select {
				case req := <-m.queue:
					s.collectAndRun(m, req)
				default:
					return
				}
			}
		}
	}
}

// collectAndRun gathers the wave that req opens and executes it.
func (s *server) collectAndRun(m *model, req *request) {
	batch := []*request{req}
	timer := time.NewTimer(s.cfg.maxWait)
collect:
	for len(batch) < s.cfg.maxBatch {
		select {
		case r := <-m.queue:
			batch = append(batch, r)
		case <-timer.C:
			break collect
		case <-s.quit:
			break collect
		}
	}
	timer.Stop()
	if m.depth != nil {
		m.depth.Set(int64(len(m.queue)))
	}
	s.runBatch(m, batch)
}

// runBatch executes one wave under the engine lock and answers every
// request in it.
func (s *server) runBatch(m *model, batch []*request) {
	inputs := make([]*yolo.Tensor, len(batch))
	for i, r := range batch {
		inputs[i] = r.input
	}
	start := time.Now()
	// Stamp each traced request's queue wait retroactively (enqueue to
	// wave start), then hang the shared execution subtree off the batch
	// leader: the first traced request's span owns the live exec spans,
	// and every other traced co-batched request adopts a copy afterwards
	// so each trace shows the full path to the DPU launches it shared.
	var leader *trace.Span
	for _, r := range batch {
		if r.sp == nil {
			continue
		}
		qsp := r.sp.StartChildAt("queue_wait", r.enq)
		qsp.EndAt(start)
		if leader == nil {
			leader = r.sp
		}
	}
	var bsp *trace.Span
	if leader != nil {
		bsp = leader.StartChild("batch_exec")
		bsp.SetAttrStr("model", m.spec.name)
		bsp.SetAttr("batch_size", int64(len(batch)))
	}
	s.engineMu.Lock()
	// Rebind the runner to this model's resident set: warm layers skip
	// their weight broadcast, cold (or evicted) layers re-deliver.
	s.runner.EnableResidency(s.cache, m.spec.name)
	if bsp != nil {
		s.runner.SetTraceSpan(bsp)
	}
	results, stats, err := m.net.ForwardBatch(inputs, s.runner)
	if bsp != nil {
		s.runner.SetTraceSpan(nil)
	}
	s.engineMu.Unlock()
	if bsp != nil {
		bsp.End()
		for _, r := range batch {
			if r.sp != nil && r.sp != leader {
				r.sp.AdoptSubtree(bsp)
			}
		}
	}
	// A surfaced wave error means retries were exhausted mid-wave (a
	// recoverable fault would have been re-dispatched silently) — freeze
	// the flight recorder so the traces leading up to the fault survive
	// ring rotation.
	if err != nil {
		reason := fmt.Sprintf("error:%v", err)
		if fr, ok := host.AsFaultReport(err); ok {
			reason = fmt.Sprintf("fault:%s (%d DPUs)", fr.Op, len(fr.Faults))
		}
		s.tracer.Recorder().Dump(reason)
	}
	if m.batchSz != nil {
		m.batchSz.Observe(uint64(len(batch)))
	}
	for i, r := range batch {
		queueUS := uint64(start.Sub(r.enq) / time.Microsecond)
		if m.queueLat != nil {
			m.queueLat.Observe(queueUS)
		}
		resp := response{batch: len(batch), queueUS: queueUS, err: err}
		if err == nil {
			resp.result = results[i]
			resp.stats = stats
		}
		r.done <- resp
	}
}

// inferRequest is the POST /v1/infer body. Input, when present, is the
// flat channel-major Q10.5 tensor (3*size*size values); otherwise a
// deterministic synthetic scene is generated from Seed.
type inferRequest struct {
	Model string  `json:"model"`
	Seed  int64   `json:"seed"`
	Input []int16 `json:"input,omitempty"`
}

type detectionJSON struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	W          float64 `json:"w"`
	H          float64 `json:"h"`
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
}

type inferResponse struct {
	Model      string          `json:"model"`
	Detections []detectionJSON `json:"detections"`
	BatchSize  int             `json:"batch_size"`
	QueueUS    uint64          `json:"queue_us"`
	LatencyUS  uint64          `json:"latency_us"`
	DPUSeconds float64         `json:"dpu_seconds"`
	// TraceID identifies this request's trace (GET /v1/trace/{id});
	// zero when the request was not sampled.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// handler builds the server's HTTP mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.Handle("/metrics", metrics.Handler(s.cfg.reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in inferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&in); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpErr(w, code, "bad request body: %v", err)
		return
	}
	m := s.models[in.Model]
	if m == nil {
		httpErr(w, http.StatusNotFound, "unknown model %q", in.Model)
		return
	}
	size := m.spec.size
	var input *yolo.Tensor
	if in.Input != nil {
		want := 3 * size * size
		if len(in.Input) != want {
			httpErr(w, http.StatusBadRequest, "input has %d values, want %d (3x%dx%d)",
				len(in.Input), want, size, size)
			return
		}
		input = yolo.NewTensor(3, size, size)
		copy(input.Data, in.Input)
	} else {
		input = yolo.SyntheticScene(size, in.Seed)
	}

	if m.requests != nil {
		m.requests.Inc()
	}
	if s.inflight != nil {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
	}
	start := time.Now()
	// Root span: one per sampled request, covering admission through
	// response. The span rides the request into the batcher; the trace
	// completes (and lands in the flight recorder) when it ends below.
	root := s.tracer.StartTrace("infer")
	root.SetAttrStr("model", in.Model)
	req := &request{input: input, enq: start, done: make(chan response, 1), sp: root}
	// Admission control: a full queue means the DPU pool is saturated
	// beyond the configured backlog — shed load now rather than let
	// latency grow without bound.
	adm := root.StartChild("admission")
	select {
	case m.queue <- req:
		adm.End()
	default:
		if m.rejected != nil {
			m.rejected.Inc()
		}
		adm.SetAttr("rejected", 1)
		adm.End()
		root.SetAttr("rejected", 1)
		root.End()
		w.Header().Set("Retry-After",
			fmt.Sprintf("%d", int(math.Ceil(s.cfg.maxWait.Seconds()))+1))
		httpErr(w, http.StatusServiceUnavailable, "model %q queue full (%d waiting)",
			in.Model, s.cfg.queueCap)
		return
	}
	if m.depth != nil {
		m.depth.Set(int64(len(m.queue)))
	}

	resp := <-req.done
	if resp.err != nil {
		root.SetAttrStr("error", resp.err.Error())
		root.End()
		httpErr(w, http.StatusInternalServerError, "inference failed: %v", resp.err)
		return
	}
	latUS := uint64(time.Since(start) / time.Microsecond)
	root.SetAttr("batch_size", int64(resp.batch))
	root.SetAttr("queue_us", int64(resp.queueUS))
	root.SetAttr("latency_us", int64(latUS))
	root.End()
	if m.latency != nil {
		m.latency.ObserveExemplar(latUS, uint64(root.TraceID()))
	}
	// SLO enforcement is diagnostic, not admission: a breach freezes the
	// flight recorder (after the breaching trace has landed in it) so
	// the traces around the slow request can be pulled later.
	if s.cfg.slo > 0 && time.Duration(latUS)*time.Microsecond > s.cfg.slo {
		s.tracer.Recorder().Dump(fmt.Sprintf("slo_breach:model=%s trace=%d lat=%dus slo=%v",
			in.Model, root.TraceID(), latUS, s.cfg.slo))
	}
	out := inferResponse{
		Model:      in.Model,
		Detections: make([]detectionJSON, 0, len(resp.result.Detections)),
		BatchSize:  resp.batch,
		QueueUS:    resp.queueUS,
		LatencyUS:  latUS,
		DPUSeconds: resp.stats.Seconds,
		TraceID:    uint64(root.TraceID()),
	}
	for _, d := range resp.result.Detections {
		out.Detections = append(out.Detections, detectionJSON{
			X: d.X, Y: d.Y, W: d.W, H: d.H, Class: d.Class, Confidence: d.Confidence,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleTrace serves one retained trace as Chrome trace-event (Perfetto)
// JSON: GET /v1/trace/{id}, or /v1/trace/last for the newest. Traces age
// out of the flight-recorder ring, so 404 also means "rotated away".
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.tracer.Recorder()
	if rec == nil {
		httpErr(w, http.StatusNotFound, "tracing disabled (-trace-sample 0)")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	var tr *trace.Trace
	switch idStr {
	case "", "last":
		if ts := rec.Traces(); len(ts) > 0 {
			tr = ts[0]
		}
	default:
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "bad trace id %q", idStr)
			return
		}
		tr = rec.Find(trace.TraceID(id))
	}
	if tr == nil {
		httpErr(w, http.StatusNotFound, "trace %q not retained (rotated out or never sampled)", idStr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WritePerfetto(w, tr)
}

type modelJSON struct {
	Name       string `json:"name"`
	InputSize  int    `json:"input_size"`
	WidthDiv   int    `json:"width_div"`
	Classes    int    `json:"classes"`
	ConvLayers int    `json:"conv_layers"`
	QueueDepth int    `json:"queue_depth"`
}

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Models        []modelJSON `json:"models"`
		DPUs          int         `json:"dpus"`
		CacheCapacity int64       `json:"cache_capacity_bytes"`
		CacheResident int64       `json:"cache_resident_bytes"`
		CacheLRU      []string    `json:"cache_lru_order"`
	}{
		DPUs:          s.sys.NumDPUs(),
		CacheCapacity: s.cache.Capacity(),
		CacheResident: s.cache.ResidentBytes(),
		CacheLRU:      s.cache.Models(),
	}
	for _, name := range s.names {
		m := s.models[name]
		out.Models = append(out.Models, modelJSON{
			Name:       m.spec.name,
			InputSize:  m.spec.size,
			WidthDiv:   m.spec.widthDiv,
			Classes:    m.spec.classes,
			ConvLayers: yolo.CountConvLayers(m.net.Defs),
			QueueDepth: len(m.queue),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

type statJSON struct {
	Model    string  `json:"model"`
	Requests uint64  `json:"requests"`
	Rejected uint64  `json:"rejected"`
	P50US    uint64  `json:"p50_us"`
	P99US    uint64  `json:"p99_us"`
	QueueP50 uint64  `json:"queue_p50_us"`
	QueueP99 uint64  `json:"queue_p99_us"`
	MeanWave float64 `json:"mean_batch_size"`
}

// handleStats summarizes the latency histograms as serving SLO numbers
// (p50/p99 per model) computed from the registry snapshot.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.reg.Snapshot()
	hist := func(name, model string) (metrics.HistSnap, bool) {
		for _, h := range snap.Histograms {
			if h.Name == name && h.LabelVal == model {
				return h, true
			}
		}
		return metrics.HistSnap{}, false
	}
	counter := func(name, model string) uint64 {
		for _, c := range snap.Counters {
			if c.Name == name && c.LabelVal == model {
				return c.Value
			}
		}
		return 0
	}
	var out []statJSON
	for _, name := range s.names {
		st := statJSON{
			Model:    name,
			Requests: counter("pim_serve_requests_total", name),
			Rejected: counter("pim_serve_rejected_total", name),
		}
		if h, ok := hist("pim_serve_latency_us", name); ok {
			st.P50US = h.Quantile(0.50)
			st.P99US = h.Quantile(0.99)
		}
		if h, ok := hist("pim_serve_queue_wait_us", name); ok {
			st.QueueP50 = h.Quantile(0.50)
			st.QueueP99 = h.Quantile(0.99)
		}
		if h, ok := hist("pim_serve_batch_size", name); ok && h.Count > 0 {
			st.MeanWave = float64(h.Sum) / float64(h.Count)
		}
		out = append(out, st)
	}
	body := struct {
		Stats []statJSON `json:"stats"`
		// Slowest summarizes the flight recorder's worst retained
		// requests; Dumps lists SLO/fault freeze events. The two loss
		// counts say what the recorder no longer holds: spans cut by
		// the per-trace cap, summed over the retained traces, and
		// traces ring rotation has overwritten.
		Slowest           []trace.TraceSummary `json:"slowest_requests,omitempty"`
		SpansDropped      int                  `json:"spans_dropped"`
		TracesOverwritten uint64               `json:"traces_overwritten"`
		Dumps             []*trace.DumpRecord  `json:"dumps,omitempty"`
	}{Stats: out}
	if rec := s.tracer.Recorder(); rec != nil {
		body.Slowest = rec.Slowest(8)
		for _, tr := range rec.Traces() {
			body.SpansDropped += tr.Dropped()
		}
		body.TracesOverwritten = rec.Overwritten()
		body.Dumps = rec.Dumps()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
