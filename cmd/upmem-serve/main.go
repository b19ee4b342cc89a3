// Command upmem-serve is an HTTP/JSON inference server over the
// simulated UPMEM system: it keeps several YOLO-family models'
// weights MRAM-resident in a shared LRU cache, coalesces concurrent
// requests into image-per-DPU waves (dynamic batching up to a latency
// deadline), and sheds load with 503 + Retry-After once a model's
// queue is full. Serving metrics (p50/p99 latency, queue wait, batch
// size) ride the same registry the simulator's counters use, exposed
// at /metrics and optionally on a separate -metrics-addr listener.
//
// Endpoints:
//
//	POST /v1/infer      {"model":"tiny","seed":7}  or  {"model":...,"input":[...]}
//	GET  /v1/models     configured models + weight-cache occupancy
//	GET  /v1/stats      per-model request counts, latency quantiles,
//	                    slowest traced requests, flight-recorder dumps
//	GET  /v1/trace/{id} one request's span tree as Perfetto JSON
//	                    ({id} from an infer response, or "last")
//	GET  /metrics       Prometheus text (or ?format=json)
//	GET  /healthz
//
// Every request (subject to -trace-sample) carries a span tree from
// HTTP admission through queue wait, batch join, per-layer GEMMs, and
// the exec engine's waves and retries down to per-DPU kernel
// spans; completed traces land in a flight-recorder ring that freezes
// itself (a "dump") when a request breaches -slo or a DPU fault report
// surfaces.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
	"pimdnn/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upmem-serve:", err)
		os.Exit(1)
	}
}

// parseModels parses -models: comma-separated name=SIZExWIDTHDIV
// entries, e.g. "tiny=64x32,lite=96x16".
func parseModels(arg string) ([]modelSpec, error) {
	var specs []modelSpec
	for _, entry := range strings.Split(arg, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, dims, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("model entry %q: want name=SIZExWIDTHDIV", entry)
		}
		sizeStr, divStr, ok := strings.Cut(dims, "x")
		if !ok {
			return nil, fmt.Errorf("model entry %q: want name=SIZExWIDTHDIV", entry)
		}
		size, err := strconv.Atoi(sizeStr)
		if err != nil {
			return nil, fmt.Errorf("model entry %q: bad size: %v", entry, err)
		}
		div, err := strconv.Atoi(divStr)
		if err != nil {
			return nil, fmt.Errorf("model entry %q: bad width divisor: %v", entry, err)
		}
		specs = append(specs, modelSpec{
			name: name, size: size, widthDiv: div, classes: 4, seed: 1,
		})
	}
	return specs, nil
}

func run() error {
	var (
		addr        = flag.String("addr", "localhost:8090", "serve address")
		metricsAddr = flag.String("metrics-addr", "", "optional extra metrics listener (e.g. localhost:9300)")
		dpus        = flag.Int("dpus", 8, "DPUs to allocate")
		tasklets    = flag.Int("tasklets", 11, "tasklets per DPU (ignored with -plan)")
		planFlag    = flag.Bool("plan", false, "auto-map per-layer tasklet counts with the cost-model planner")
		optFlag     = flag.Int("O", 3, "optimization level 0-3")
		models      = flag.String("models", "tiny=64x32", "models to serve: name=SIZExWIDTHDIV, comma-separated")
		maxBatch    = flag.Int("max-batch", 4, "images coalesced into one wave")
		maxWait     = flag.Duration("max-wait", 20*time.Millisecond, "batching deadline after the first request")
		queueCap    = flag.Int("queue", 64, "per-model admission queue bound")
		cacheBytes  = flag.Int64("weight-cache", 4<<20, "per-DPU weight arena bytes (8-aligned)")
		traceSample = flag.Int("trace-sample", 1, "trace 1 in N requests (0 disables tracing)")
		traceRing   = flag.Int("trace-ring", 64, "flight-recorder capacity in completed traces")
		slo         = flag.Duration("slo", 0, "latency SLO; a breach dumps the flight recorder (0 disables)")
	)
	flag.Parse()

	specs, err := parseModels(*models)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	s, err := newServer(serveConfig{
		dpus: *dpus, tasklets: *tasklets, autoMap: *planFlag, opt: dpu.OptLevel(*optFlag),
		specs: specs, maxBatch: *maxBatch, maxWait: *maxWait,
		queueCap: *queueCap, cacheBytes: *cacheBytes, reg: reg,
		traceSample: *traceSample, traceRing: *traceRing, slo: *slo,
		onDump: func(d *trace.DumpRecord) {
			fmt.Fprintf(os.Stderr, "flight recorder dump (%s): %d traces retained\n",
				d.Reason, len(d.TraceIDs))
		},
	})
	if err != nil {
		return err
	}
	defer s.Stop()

	if *metricsAddr != "" {
		bound, shutdown, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	mapping := fmt.Sprintf("%d tasklets", *tasklets)
	if *planFlag {
		mapping = "auto-mapped"
	}
	fmt.Printf("serving %d model(s) on http://%s (%d DPUs, %s, batch<=%d, wait<=%v)\n",
		len(specs), ln.Addr(), *dpus, mapping, *maxBatch, *maxWait)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("\nshutting down")
		_ = srv.Close()
		return nil
	case err := <-done:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
