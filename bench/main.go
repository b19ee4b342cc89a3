// Command bench is the repository's benchmark: four workloads measured
// end to end on the host clock, with the simulated clock beside it as a
// checksum, and a traced run that breaks each workload down by layer.
// BENCHMARK.json at the root of the checkout is its contract; README.md
// in this directory defines every metric.
//
//	go run ./bench -workload array_yolo -seed 1 -seconds 10 -trace 0
//	go run ./bench -repeat 2 -check
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllServers()
		os.Exit(130)
	}()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	stopAllServers()
	os.Exit(code)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, repeat int
	var check, child bool
	fs.StringVar(&o.workload, "workload", "", "workload to run (see "+specFile+")")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of "+specFile+")")
	fs.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes a span file")
	fs.BoolVar(&o.smoke, "smoke", false, "shrunken systems and a few operations (what go test runs)")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for the upmem-serve binary and span files")
	fs.IntVar(&repeat, "repeat", 0, "run the whole set of workloads N times and summarize")
	fs.BoolVar(&check, "check", false, "with -repeat: exit 1 when two sets disagree by more than a metric's bound")
	fs.BoolVar(&child, "setup-only", false, "internal: set the workload up once, print the seconds, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if repeat > 0 {
		return runSets(spec, o, repeat, check, stdout, stderr)
	}
	if o.workload == "" {
		fmt.Fprintln(stderr, "bench: -workload or -repeat is required")
		fs.Usage()
		return 2
	}
	if child {
		if err := setupOnly(o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := report(spec, o, res, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintln(stderr, "bench: first failed operation:", res.firstErr)
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// report prints the environment header and every metric of the run by
// name and unit, and builds the result line. An end-to-end metric the
// run has no value for is an error; a per-layer metric this workload is
// not the source of reads 0 (the contract wants every name every time).
func report(spec *benchSpec, o options, res result, w io.Writer) (resultLine, error) {
	env, _ := json.Marshal(envHeader(o, res.opsTimed))
	fmt.Fprintf(w, "env %s\n", env)
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
		fmt.Fprintf(w, "spans %s\n", res.spanFile)
	}
	known := make(map[string]bool, len(defs))
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := res.values[d.Name]
		if !ok && !o.trace {
			return line, fmt.Errorf("%s: no value for end-to-end metric %s", o.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		note := ""
		switch {
		case !ok:
			note = "  (not taken in this workload)"
		case d.Name == "bench.op_p95_ms" && !tailSupported(res.opsTimed, 0.95):
			note = "  (fewer than 200 ops: tail under-sampled)"
		}
		fmt.Fprintf(w, "%-34s %16.6g %-9s n=%d%s\n", d.Name, v, d.Unit, res.opsTimed, note)
	}
	for name := range res.values {
		if !known[name] {
			return line, fmt.Errorf("%s: metric %s is not in %s", o.workload, name, specFile)
		}
	}
	return line, nil
}

// compare holds the best and the worst of several sets' values of one
// metric against its bound: gap is how much worse the worst set is than
// the best, as a share of the best. The simulated-clock metrics must be
// equal on the in-process workloads; per-layer metrics have no bound. A
// non-empty verdict is a disagreement.
func compare(d metricDef, workload string, lo, hi float64, perLayer bool) (gap float64, bound, verdict string) {
	gap = ratio(hi-lo, lo)
	if d.Better == "higher" {
		gap = ratio(hi-lo, hi)
	}
	exact := simClock[d.Name] && workload != serveClosed.name
	switch {
	case perLayer:
		return gap, "-", ""
	case exact && hi != lo:
		return gap, "exact", "  DIFFERS (simulated clock must repeat exactly)"
	case exact:
		return gap, "exact", ""
	case gap > d.Bound:
		verdict = "  OUTSIDE BOUND"
	}
	return gap, fmt.Sprintf("%.3g%%", 100*d.Bound), verdict
}

// runSets runs every workload of the contract n times, each run its own
// process with the contract's command line, then prints per metric the
// minimum, median and maximum across the sets and the gap between the
// best and the worst set as a share, next to the metric's bound.
func runSets(spec *benchSpec, o options, n int, check bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
	}
	// values[workload][metric] holds one value per set.
	values := make(map[string]map[string][]float64)
	bad := 0
	for set := 0; set < n; set++ {
		for _, w := range spec.Workloads {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", "0", "-out", o.outDir}
			if o.trace {
				args[7] = "1"
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: set %d %s: %v\n", set+1, w.Name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				fmt.Fprintf(stderr, "bench: set %d %s: result line: %v\n", set+1, w.Name, err)
				return 1
			}
			fmt.Fprintf(stdout, "set %d %s: %s\n", set+1, w.Name, lines[0])
			if !line.Correct || line.Failed > 0 {
				fmt.Fprintf(stdout, "set %d %s: %d of %d operations failed\n", set+1, w.Name, line.Failed, line.Attempted)
				bad++
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range line.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-14s %-26s %14s %14s %14s %9s %8s\n", "workload", "metric", "min", "median", "max", "gap", "bound")
	for _, w := range spec.Workloads {
		for _, d := range defs {
			v := values[w.Name][d.Name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			lo, hi := s[0], s[len(s)-1]
			gap, bound, verdict := compare(d, w.Name, lo, hi, o.trace)
			if verdict != "" {
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-26s %14.6g %14.6g %14.6g %8.2f%% %8s%s\n",
				w.Name, d.Name, lo, median(v), hi, 100*gap, bound, verdict)
		}
	}
	if check && bad > 0 {
		fmt.Fprintf(stdout, "\ncheck: %d disagreement(s) between sets\n", bad)
		return 1
	}
	return 0
}
