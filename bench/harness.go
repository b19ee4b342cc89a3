package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimdnn/internal/metrics"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every system and runs a few operations: what
	// `go test ./bench` drives so tier-1 stays fast.
	smoke bool
	// outDir receives what a run leaves behind: the upmem-serve binary
	// and the span file. Inside the checkout, named in .gitignore.
	outDir string
}

// setups is how many times a run sets the workload up; setup_s is their
// median. All but the one that gets timed run in a process of their own
// (see setupOnly), as a user's set-up does: a process that has already
// built and released a 2,560-DPU system runs its next pass 25% slower.
func (o options) setups() int {
	if o.smoke {
		return 1
	}
	return 3
}

// simCounters are a workload's cumulative simulated-clock counters. The
// timed window reports their growth per operation.
type simCounters struct {
	cycles, xferBytes, xferOps, waves, retries float64
	// page is the whole /metrics scrape the counters came from, for a
	// workload whose program is a server; empty in-process.
	page metrics.Snapshot
}

func (a simCounters) minus(b simCounters) simCounters {
	return simCounters{cycles: a.cycles - b.cycles, xferBytes: a.xferBytes - b.xferBytes,
		xferOps: a.xferOps - b.xferOps, waves: a.waves - b.waves, retries: a.retries - b.retries}
}

// instance is a workload set up and warmed: ready for its first timed
// operation.
type instance struct {
	// clients is the number of closed-loop generator goroutines.
	clients int
	// items is how many items one operation completes.
	items int
	// op runs operation i of one client and checks its output and its
	// simulated cycles against the stored expectation; an error is a
	// failed operation. It hangs its layer-call spans below sp.
	op func(client, i int, sp spanCtx) error
	// sim reads the cumulative simulated-clock counters.
	sim func() (simCounters, error)
	// layers runs after the traced window: it replays the calls below
	// the traced spans, runs the workload's standalone rungs, and sets
	// every per-layer metric this workload is the source of.
	layers func(t *traced) error
	close  func()
}

// workload is one named entry of the contract's workload list.
type workload struct {
	name string
	// prepare is untimed: it compiles what the workload drives.
	prepare func(o options) error
	// setup is timed as setup_s: allocation, model build or training,
	// server spawn, the output-correctness gate and the warm-up.
	setup func(o options) (*instance, error)
}

var workloads = []workload{serveClosed, arrayYOLO, ebnnStream, rowsZoo}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// window is what one run of operations measured.
type window struct {
	okMS      []float64 // host time of every operation that held
	plainMS   []float64 // traced runs: the held operations that ran untraced
	attempted int
	failed    int
	elapsed   float64     // seconds, first start to last completion
	allocMB   float64     // harness-process TotalAlloc growth
	sim       simCounters // growth over the window
	before    simCounters
	after     simCounters
	firstErr  error // why the first failed operation failed
}

// runOps drives inst's clients closed-loop until stop says so. stop sees
// how many operations the asking client has finished and the time since
// the window opened; an operation that has started always completes.
// With a recorder, each client traces every other operation, so traced
// and untraced operations are timed side by side in one window.
func runOps(inst *instance, rec *recorder, stop func(done int, since time.Duration) bool) (window, error) {
	var w window
	before, err := inst.sim()
	if err != nil {
		return w, err
	}
	type sample struct {
		ms     float64
		err    error
		traced bool
	}
	per := make([][]sample, inst.clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop(i, time.Since(start)); i++ {
				op, r := c+i*inst.clients, rec
				if i%2 == 1 {
					r = nil
				}
				root := r.begin("op", -1, op, false)
				t0 := time.Now()
				err := inst.op(c, i, spanCtx{rec: r, parent: root, op: op})
				d := time.Since(t0)
				r.end(root)
				per[c] = append(per[c], sample{float64(d) / 1e6, err, r != nil})
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	w.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	after, err := inst.sim()
	if err != nil {
		return w, err
	}
	w.before, w.after, w.sim = before, after, after.minus(before)
	for _, samples := range per {
		for _, s := range samples {
			w.attempted++
			if s.err == nil && (s.traced || rec == nil) {
				w.okMS = append(w.okMS, s.ms)
				continue
			}
			if s.err == nil {
				w.plainMS = append(w.plainMS, s.ms)
				continue
			}
			w.failed++
			if w.firstErr == nil {
				w.firstErr = s.err
			}
		}
	}
	return w, nil
}

// warmUp runs perClient untimed operations on every client. During
// warm-up a failed operation is fatal, not a counted failure: it is the
// output-correctness gate every pool input passes before timing.
func warmUp(inst *instance, perClient int) error {
	w, err := runOps(inst, nil, forCount(perClient))
	if err == nil {
		err = w.firstErr
	}
	return err
}

func forCount(perClient int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= perClient }
}

// forSeconds stops a client once the window has been open s seconds and
// the client has finished at least min operations (a traced window needs
// one traced and one untraced operation however slow the host is).
func forSeconds(s float64, min int) func(int, time.Duration) bool {
	limit := time.Duration(s * float64(time.Second))
	return func(done int, since time.Duration) bool { return since >= limit && done >= min }
}

// traced is what a workload's layers function works with.
type traced struct {
	o      options
	rec    *recorder
	win    window
	values map[string]float64
}

func (t *traced) set(name string, v float64) { t.values[name] = v }

// result is one finished run.
type result struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	opsTimed          int
	spanFile          string
}

// setUp compiles what the workload drives (untimed) and sets it up once,
// returning the instance and the seconds the set-up took.
func setUp(o options) (*instance, float64, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, 0, err
	}
	if w.prepare != nil {
		if err := w.prepare(o); err != nil {
			return nil, 0, fmt.Errorf("prepare: %w", err)
		}
	}
	t0 := time.Now()
	inst, err := w.setup(o)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// runWorkload is one run of the contract's command: set up (several
// times, for a median), open the timed window, derive the metrics.
func runWorkload(o options) (res result, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", o.workload, err)
		}
	}()
	var setupS []float64
	for i := 1; i < o.setups() && !o.trace; i++ {
		s, err := setupInChild(o)
		if err != nil {
			return res, fmt.Errorf("set-up in a child process: %w", err)
		}
		setupS = append(setupS, s)
	}
	inst, s, err := setUp(o)
	if err != nil {
		return res, err
	}
	defer inst.close()
	setupS = append(setupS, s)

	res.values = make(map[string]float64)
	if !o.trace {
		win, err := runOps(inst, nil, forSeconds(o.seconds, 1))
		if err != nil {
			return res, fmt.Errorf("timed window: %w", err)
		}
		res.attempted, res.failed, res.opsTimed, res.firstErr = win.attempted, win.failed, len(win.okMS), win.firstErr
		if len(win.okMS) == 0 {
			return res, fmt.Errorf("no operation succeeded (%d attempted): %v", win.attempted, win.firstErr)
		}
		ops := float64(len(win.okMS))
		res.values["setup_s"] = median(setupS)
		res.values["items_per_s"] = ops * float64(inst.items) / win.elapsed
		res.values["op_p50_ms"] = median(win.okMS)
		res.values["alloc_mb_per_op"] = win.allocMB / float64(win.attempted)
		res.values["sim_cycles_per_op"] = win.sim.cycles / float64(win.attempted)
		res.values["sim_xfer_bytes_per_op"] = win.sim.xferBytes / float64(win.attempted)
		return res, nil
	}

	rec := newRecorder()
	win, err := runOps(inst, rec, forSeconds(o.seconds, 2))
	if err != nil {
		return res, fmt.Errorf("traced window: %w", err)
	}
	res.attempted, res.failed, res.opsTimed, res.firstErr = win.attempted, win.failed, len(win.okMS)+len(win.plainMS), win.firstErr
	if len(win.okMS) == 0 || len(win.plainMS) == 0 {
		return res, fmt.Errorf("window too short to time a traced and an untraced operation (%d attempted): %v",
			win.attempted, win.firstErr)
	}
	t := &traced{o: o, rec: rec, win: win, values: res.values}
	ops := float64(win.attempted)
	t.set("bench.trace_overhead_ratio", median(win.okMS)/median(win.plainMS))
	t.set("bench.ops_timed", float64(res.opsTimed))
	t.set("bench.op_p95_ms", percentile(append(win.okMS, win.plainMS...), 0.95))
	t.set("exec.waves_per_op", win.sim.waves/ops)
	t.set("exec.retries", win.sim.retries)
	t.set("host.xfer_ops_per_op", win.sim.xferOps/ops)
	if err := inst.layers(t); err != nil {
		return res, fmt.Errorf("layers: %w", err)
	}
	t.set("bench.peak_rss_mb", peakRSSMB(os.Getpid()))
	res.spanFile = filepath.Join(o.outDir, "spans", fmt.Sprintf("%s_seed%d.json", o.workload, o.seed))
	if err := writeSpans(res.spanFile, envHeader(o, res.opsTimed), rec.spans); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// setupOnly is the child side of setupInChild: set up once, print the
// seconds it took, release everything.
func setupOnly(o options, stdout io.Writer) error {
	inst, s, err := setUp(o)
	if err != nil {
		return err
	}
	inst.close()
	_, err = fmt.Fprintln(stdout, s)
	return err
}

// setupInChild times one set-up in a fresh process of this binary.
func setupInChild(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) from
// /proc; 0 where /proc does not have it.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timeMedian times fn reps times and returns the median seconds per
// call. One untimed call comes first as a warm-up.
func timeMedian(reps int, fn func() error) (float64, error) {
	return timeMedianOf(reps, 1, fn)
}

// timeMedianOf is timeMedian for calls too short for the clock: each of
// the reps samples times inner back-to-back calls.
func timeMedianOf(reps, inner int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d[i] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(d), nil
}
