// Command upmem-top is a live terminal view of a running PIM workload.
// It polls the JSON snapshot endpoint a -metrics-addr process serves
// (cmd/experiments, or anything that wires metrics.Serve) and renders
// per-DPU utilization bars from pim_dpu_cycles_total deltas plus a
// one-screen summary of transfers, waves, and faults.
//
// At full-array scale 2,560 per-DPU bars do not fit a screen; -by-rank
// folds them into one row per DIMM rank (64 DPUs by default, see
// -rank-size) showing the min/mean/max utilization inside the rank.
//
// Usage:
//
//	upmem-top -addr localhost:9100 -interval 500ms
//	upmem-top -addr localhost:9100 -once       # single snapshot, no clear
//	upmem-top -addr localhost:9100 -by-rank    # one row per 64-DPU rank
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
	"pimdnn/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upmem-top:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:9100", "metrics endpoint host:port (the target's -metrics-addr)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	count := flag.Int("count", 0, "exit after this many frames (0 = until interrupted)")
	once := flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	width := flag.Int("width", 40, "utilization bar width in columns")
	byRank := flag.Bool("by-rank", false, "aggregate DPUs into one row per rank (min/mean/max utilization)")
	rankSize := flag.Int("rank-size", dpu.DPUsPerRank, "DPUs per rank for -by-rank aggregation")
	serveAddr := flag.String("serve-addr", "",
		"upmem-serve address (e.g. localhost:8090) for the slowest-requests panel; empty disables")
	flag.Parse()

	group := 0
	if *byRank {
		if *rankSize < 1 {
			return fmt.Errorf("-rank-size %d must be positive", *rankSize)
		}
		group = *rankSize
	}

	url := fmt.Sprintf("http://%s/metrics?format=json", *addr)
	if *once {
		*count = 1
	}
	client := pollClient(*interval)
	var prev metrics.Snapshot
	first := true
	for frame := 0; *count == 0 || frame < *count; frame++ {
		if !first {
			time.Sleep(*interval)
		}
		cur, err := fetch(client, url)
		if err != nil {
			return err
		}
		out := Render(prev, cur, *interval, *width, group)
		if *serveAddr != "" {
			// The slowest-requests panel rides the serve frontend's
			// stats endpoint; a fetch error degrades to a note rather
			// than killing the live view.
			st, err := fetchStats(client, fmt.Sprintf("http://%s/v1/stats", *serveAddr))
			if err != nil {
				out += fmt.Sprintf("\n(slowest-requests panel unavailable: %v)\n", err)
			} else {
				out += RenderSlowest(st.Slowest, st.Dumps)
			}
		}
		if !*once {
			// Home the cursor and clear below: a flicker-free repaint.
			fmt.Print("\033[H\033[J")
		}
		fmt.Print(out)
		prev, first = cur, false
	}
	return nil
}

// serveStats is the subset of upmem-serve's /v1/stats body the panel
// consumes.
type serveStats struct {
	Slowest []trace.TraceSummary `json:"slowest_requests"`
	Dumps   []*trace.DumpRecord  `json:"dumps"`
}

// fetchStats polls one /v1/stats document.
func fetchStats(client *http.Client, url string) (serveStats, error) {
	var st serveStats
	resp, err := client.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// RenderSlowest draws the slowest-recent-requests panel from the serve
// frontend's flight-recorder summaries plus any dump records. Pure
// function of its inputs, like Render, so the format is unit-testable.
func RenderSlowest(sums []trace.TraceSummary, dumps []*trace.DumpRecord) string {
	if len(sums) == 0 && len(dumps) == 0 {
		return "\nslowest recent requests: (no traces retained yet)\n"
	}
	var b strings.Builder
	b.WriteString("\nslowest recent requests:\n")
	fmt.Fprintf(&b, "  %-7s %-10s %5s %12s %12s %6s\n",
		"trace", "model", "batch", "total", "queue", "spans")
	for _, s := range sums {
		model := s.Model
		if model == "" {
			model = s.Name
		}
		fmt.Fprintf(&b, "  %-7d %-10s %5d %12v %12v %6d\n",
			s.ID, model, s.BatchSize,
			s.Duration.Round(10*time.Microsecond),
			s.QueueWait.Round(10*time.Microsecond), s.Spans)
	}
	for _, d := range dumps {
		fmt.Fprintf(&b, "  dump: %s (%d traces)\n", d.Reason, len(d.TraceIDs))
	}
	return b.String()
}

// pollTimeoutFloor keeps very fast poll intervals from turning into
// sub-second request deadlines that a loaded endpoint can't meet.
const pollTimeoutFloor = time.Second

// pollClient builds the snapshot-polling HTTP client. Its timeout is
// derived from the poll interval — twice the interval, floored at one
// second — so a stalled metrics endpoint fails the frame (and surfaces
// an error) instead of hanging the live view forever, which is what the
// previous bare http.Get did.
func pollClient(interval time.Duration) *http.Client {
	timeout := 2 * interval
	if timeout < pollTimeoutFloor {
		timeout = pollTimeoutFloor
	}
	return &http.Client{Timeout: timeout}
}

// fetch polls one JSON snapshot.
func fetch(client *http.Client, url string) (metrics.Snapshot, error) {
	var s metrics.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = metrics.ReadJSON(resp.Body, &s)
	return s, err
}

// counterSum totals every series of one counter family.
func counterSum(s metrics.Snapshot, name string) uint64 {
	var v uint64
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

// counterLabeled returns the series of a family with the given label
// value, 0 when absent.
func counterLabeled(s metrics.Snapshot, name, labelVal string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name && c.LabelVal == labelVal {
			return c.Value
		}
	}
	return 0
}

// gaugeVal returns one gauge's value, 0 when absent.
func gaugeVal(s metrics.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// dpuSeries collects one per-DPU counter family in snapshot order
// (numeric-aware, so dpu 2 precedes dpu 10).
func dpuSeries(s metrics.Snapshot, name string) []metrics.CounterSnap {
	var out []metrics.CounterSnap
	for _, c := range s.Counters {
		if c.Name == name && c.LabelKey == "dpu" {
			out = append(out, c)
		}
	}
	return out
}

// bar renders n/max as a width-column bar.
func bar(n, max uint64, width int) string {
	if width < 1 {
		width = 1
	}
	fill := 0
	if max > 0 {
		fill = int(n * uint64(width) / max)
		if n > 0 && fill == 0 {
			fill = 1
		}
	}
	return strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
}

// Render draws one frame from two successive snapshots: per-DPU
// utilization bars scaled to the busiest DPU's cycle delta over the
// interval, then the host/engine summary. rankSize > 0 folds the DPUs
// into one row per rank of that width with the min/mean/max delta
// inside each rank; 0 keeps per-DPU rows. It is a pure function of its
// inputs so the frame format is unit-testable.
func Render(prev, cur metrics.Snapshot, interval time.Duration, width, rankSize int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "upmem-top — interval %v\n\n", interval)

	cyc := dpuSeries(cur, "pim_dpu_cycles_total")
	if len(cyc) == 0 {
		b.WriteString("(no pim_dpu_cycles_total series yet — is the workload running?)\n")
	}
	// Delta per DPU against the previous frame; the first frame shows
	// totals since the registry was armed.
	deltas := make([]uint64, len(cyc))
	var maxD, totD uint64
	for i, c := range cyc {
		d := c.Value - counterLabeled(prev, "pim_dpu_cycles_total", c.LabelVal)
		deltas[i] = d
		totD += d
		if d > maxD {
			maxD = d
		}
	}
	if rankSize > 0 {
		renderRanks(&b, cur, cyc, deltas, width, rankSize)
	} else {
		for i, c := range cyc {
			launches := counterLabeled(cur, "pim_dpu_launches_total", c.LabelVal)
			faults := counterLabeled(cur, "pim_dpu_faults_total", c.LabelVal)
			status := ""
			if faults > 0 {
				status = fmt.Sprintf("  faults=%d", faults)
			}
			fmt.Fprintf(&b, "dpu%-4s %s %12d cyc  launches=%d%s\n",
				c.LabelVal, bar(deltas[i], maxD, width), deltas[i], launches, status)
		}
	}
	if len(cyc) > 0 {
		fmt.Fprintf(&b, "\ntotal Δcycles: %d across %d DPUs\n", totD, len(cyc))
	}

	fmt.Fprintf(&b, "\nhost: xfer to_dpu=%dB from_dpu=%dB  pool_shard_runs=%d\n",
		counterLabeled(cur, "pim_host_xfer_bytes_total", "to_dpu"),
		counterLabeled(cur, "pim_host_xfer_bytes_total", "from_dpu"),
		histCount(cur, "pim_host_pool_shards"))
	fmt.Fprintf(&b, "exec: waves=%d retries=%d down_dpus=%d  fault_reports=%d\n",
		counterSum(cur, "pim_exec_waves_total"),
		counterSum(cur, "pim_exec_retries_total"),
		gaugeVal(cur, "pim_exec_down_dpus"),
		counterSum(cur, "pim_host_fault_reports_total"))

	if layers := layerRows(cur); len(layers) > 0 {
		fmt.Fprintf(&b, "\nlayers (cycles):\n")
		for _, l := range layers {
			fmt.Fprintf(&b, "  %-24s %d\n", l.LabelVal, l.Value)
		}
	}
	return b.String()
}

// rankRow aggregates one rank's per-DPU cycle deltas.
type rankRow struct {
	dpus     int
	min, max uint64
	sum      uint64
	faults   uint64
}

// renderRanks writes one row per rank: a bar of the rank's mean delta
// scaled to the busiest rank's mean, then the min/mean/max spread inside
// the rank — a flat spread is a balanced rank, a wide one means the
// shard plan left some of its DPUs idle.
func renderRanks(b *strings.Builder, cur metrics.Snapshot, cyc []metrics.CounterSnap, deltas []uint64, width, rankSize int) {
	rows := map[int]*rankRow{}
	maxRank := -1
	for i, c := range cyc {
		id, err := strconv.Atoi(c.LabelVal)
		if err != nil {
			continue // not a numeric DPU label; skip rather than misfile
		}
		r := id / rankSize
		row := rows[r]
		if row == nil {
			row = &rankRow{min: deltas[i]}
			rows[r] = row
			if r > maxRank {
				maxRank = r
			}
		}
		d := deltas[i]
		row.dpus++
		row.sum += d
		if d < row.min {
			row.min = d
		}
		if d > row.max {
			row.max = d
		}
		row.faults += counterLabeled(cur, "pim_dpu_faults_total", c.LabelVal)
	}
	var maxMean uint64
	for _, row := range rows {
		if m := row.sum / uint64(row.dpus); m > maxMean {
			maxMean = m
		}
	}
	for r := 0; r <= maxRank; r++ {
		row := rows[r]
		if row == nil {
			continue
		}
		mean := row.sum / uint64(row.dpus)
		status := ""
		if row.faults > 0 {
			status = fmt.Sprintf("  faults=%d", row.faults)
		}
		fmt.Fprintf(b, "rank%-3d %s min %12d  mean %12d  max %12d cyc  dpus=%d%s\n",
			r, bar(mean, maxMean, width), row.min, mean, row.max, row.dpus, status)
	}
}

// histCount returns one histogram family's observation count.
func histCount(s metrics.Snapshot, name string) uint64 {
	var v uint64
	for _, h := range s.Histograms {
		if h.Name == name {
			v += h.Count
		}
	}
	return v
}

// layerRows collects the per-layer cycle counters in snapshot order.
func layerRows(s metrics.Snapshot) []metrics.CounterSnap {
	var out []metrics.CounterSnap
	for _, c := range s.Counters {
		if c.Name == "pim_layer_cycles_total" && c.LabelKey == "layer" {
			out = append(out, c)
		}
	}
	return out
}
