package exec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/trace"
)

// toySet is a minimal WorkSet: shard i carries one uint32 v, the kernel
// computes v*3+7, and Decode collects the transformed values. Buffers
// are 8 bytes per DPU (the MRAM DMA granularity). With twoStream it
// also carries a second scatter stream, a per-shard addend the kernel
// adds to the result.
//
// With inPlace (one wave: shards <= DPUs) its input and gather streams
// are in place: shard i's v is filled into its DPU's MRAM, and the kernel
// writes a 16-byte record (result, v, ^v, toyTag) into rows 0, crossRow
// and toyRows-1 of a toyRows-row output, which the gather copies out
// run by run into rows[i]. The output crosses a 64 KiB MRAM page inside
// row crossRow, so every shard arrives as several runs, one of them
// that staged row, unless it is re-dispatched and delivered whole. Per
// shard: next is the row its next run must start at (0 between
// dispatches), delivered counts the dispatches that delivered it, whole
// those that did in one run, staged its staged crossRow runs, and bad
// records a run out of order.
type toySet struct {
	sys                *host.System
	refIn, refAdd      host.SymbolRef
	refOut, refRows    host.SymbolRef
	kern               dpu.KernelFunc
	vals, got          []uint32
	start              int
	twoStream, inPlace bool
	work               int64
	inBufs, addBufs    [][]byte
	outBufs, rows      [][]byte
	wantRows           []byte
	streams            []exec.Stream
	crossRow           int
	next, delivered    []int
	whole, staged      []int
	bad                []string
}

// toyOpts shapes a toySet beyond its DPU count and shards. work is what
// Work declares per shard: 0 or toyFansOut.
type toyOpts struct {
	topo               host.Topology
	twoStream, inPlace bool
	work               int64
}

// toyFansOut is a per-shard work far above the host's fan-out threshold:
// a wave of 2 or more DPUs that declares it runs on the worker pool.
const toyFansOut = 1 << 30

const (
	toyTag      = 0x5A5A
	toyRows     = 3000
	toyRowBytes = 24
	toyOutBytes = toyRows * toyRowBytes
)

// toyAddend is shard i's addend on the second stream.
func toyAddend(shard int) uint32 { return uint32(5*shard + 1) }

func newToySet(t *testing.T, nd int, vals []uint32, o toyOpts) *toySet {
	t.Helper()
	cfg := host.DefaultConfig(dpu.O3)
	cfg.Topology = o.topo
	sys, err := host.NewSystem(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	refs, err := sys.Alloc(dpu.Layout{{Name: "toy_in", Kind: dpu.SymbolMRAM, Size: 8}, {Name: "toy_add", Kind: dpu.SymbolMRAM, Size: 8},
		{Name: "toy_out", Kind: dpu.SymbolMRAM, Size: 8}, {Name: "toy_rows", Kind: dpu.SymbolMRAM, Size: toyOutBytes},
		{Name: "toy_wram", Kind: dpu.SymbolWRAM, Size: 16}})
	if err != nil {
		t.Fatal(err)
	}
	n := len(vals)
	w := &toySet{sys: sys, vals: vals, got: make([]uint32, n), twoStream: o.twoStream, inPlace: o.inPlace, work: o.work,
		refIn: refs[0], refAdd: refs[1], refOut: refs[2], refRows: refs[3],
		rows: make([][]byte, n), next: make([]int, n), delivered: make([]int, n), whole: make([]int, n), staged: make([]int, n), bad: make([]string, n)}
	inOff, addOff, outOff, rowsOff, wramOff := refs[0].Offset(), refs[1].Offset(), refs[2].Offset(), refs[3].Offset(), refs[4].Offset()
	pageEnd := (rowsOff/dpu.MRAMPageSize + 1) * dpu.MRAMPageSize
	w.crossRow = int((pageEnd - rowsOff) / toyRowBytes)
	if (pageEnd-rowsOff)%toyRowBytes == 0 || w.crossRow < 1 || w.crossRow >= toyRows-1 {
		t.Fatalf("toy_rows at %d: no row strictly inside the region crosses the page end at %d", rowsOff, pageEnd)
	}
	w.kern = func(tk *dpu.Tasklet) error {
		if tk.ID() != 0 {
			return nil
		}
		tk.MRAMToWRAM(wramOff, inOff, 8)
		v := tk.Load32(wramOff)
		out := v*3 + 7
		if o.twoStream {
			tk.MRAMToWRAM(wramOff+8, addOff, 8)
			out += tk.Load32(wramOff + 8)
		}
		tk.Store32(wramOff, out)
		if !o.inPlace {
			tk.WRAMToMRAM(outOff, wramOff, 8)
			return nil
		}
		tk.Store32(wramOff+4, v)
		tk.Store32(wramOff+8, ^v)
		tk.Store32(wramOff+12, toyTag)
		for _, row := range []int{0, w.crossRow, toyRows - 1} {
			tk.WRAMToMRAM(rowsOff+int64(row*toyRowBytes), wramOff, 16)
		}
		return nil
	}
	w.inBufs, w.addBufs, w.outBufs = make([][]byte, nd), make([][]byte, nd), make([][]byte, nd)
	for d := 0; d < nd; d++ {
		w.inBufs[d], w.addBufs[d], w.outBufs[d] = make([]byte, 8), make([]byte, 8), make([]byte, 8)
	}
	for i := range w.rows {
		w.rows[i] = make([]byte, toyOutBytes)
	}
	return w
}

// want is the expected Decode output.
func (w *toySet) want() []uint32 {
	want := make([]uint32, len(w.vals))
	for i, v := range w.vals {
		want[i] = v*3 + 7
		if w.twoStream {
			want[i] += toyAddend(i)
		}
	}
	return want
}

// verify fails t unless the last dispatch decoded every shard's
// result, and clears the results for the next dispatch.
func (w *toySet) verify(t *testing.T, what string) {
	t.Helper()
	if want := w.want(); !reflect.DeepEqual(w.got, want) {
		t.Fatalf("%s: got %v, want %v", what, w.got, want)
	}
	clear(w.got)
}

func (w *toySet) Shards() int                  { return len(w.vals) }
func (w *toySet) Tasklets() int                { return 2 }
func (w *toySet) Kernel() dpu.KernelFunc       { return w.kern }
func (w *toySet) Broadcasts() []exec.Broadcast { return nil }
func (w *toySet) Work() int64                  { return w.work }

func (w *toySet) Encode(_, start, n int) {
	w.start = start
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(w.inBufs[i], w.vals[start+i])
		binary.LittleEndian.PutUint32(w.addBufs[i], toyAddend(start+i))
	}
}

func (w *toySet) Scatter(_, n int) []exec.Stream {
	in := exec.Stream{Ref: w.refIn, Bufs: w.inBufs}
	if w.inPlace {
		in = exec.Stream{Ref: w.refIn, Rows: 1, RowBytes: 8, Run: w.fill}
	}
	w.streams = append(w.streams[:0], in)
	if w.twoStream {
		w.streams = append(w.streams, exec.Stream{Ref: w.refAdd, Bufs: w.addBufs})
	}
	return w.streams
}

func (w *toySet) Gather(_, n int) exec.Stream {
	if w.inPlace {
		return exec.Stream{Ref: w.refRows, Rows: toyRows, RowBytes: toyRowBytes, Run: w.deliver}
	}
	return exec.Stream{Ref: w.refOut, Bufs: w.outBufs}
}

func (w *toySet) Decode(_, shard, i int) {
	out := w.outBufs[i]
	if w.inPlace {
		out = w.rows[shard]
	}
	w.got[shard] = binary.LittleEndian.Uint32(out)
}

// fill is the in-place input stream's Run: shard i's v in its one row.
func (w *toySet) fill(i, _, _ int, block []byte, _ int) {
	binary.LittleEndian.PutUint64(block, uint64(w.vals[w.start+i]))
}

// deliver is the in-place gather stream's Run.
func (w *toySet) deliver(i, first, count int, block []byte, blockStride int) {
	if first != w.next[i] || count < 1 || first+count > toyRows {
		w.bad[i] = fmt.Sprintf("run [%d, %d) after row %d", first, first+count, w.next[i])
	}
	if first == 0 {
		w.delivered[i]++
	}
	switch {
	case count == toyRows:
		w.whole[i]++
	case first == w.crossRow && count == 1 && blockStride == 0:
		w.staged[i]++
	}
	for r := 0; r < count; r++ {
		copy(w.rows[i][(first+r)*toyRowBytes:(first+r+1)*toyRowBytes], block[r*blockStride:])
	}
	w.next[i] = (first + count) % toyRows
}

// check asserts in-place shard i's state after its run-th dispatch:
// delivered once per dispatch in runs covering [0, toyRows) in order,
// through the staged crossing row whenever it was not delivered whole,
// with the kernel's three records and zeros elsewhere.
func (w *toySet) check(t *testing.T, i, run int) {
	t.Helper()
	if w.bad[i] != "" || w.next[i] != 0 || w.delivered[i] != run {
		t.Fatalf("run %d: shard %d delivered %d times, next row %d, %q", run, i, w.delivered[i], w.next[i], w.bad[i])
	}
	if w.staged[i] != run-w.whole[i] {
		t.Fatalf("run %d: shard %d delivered whole %d times and through a staged row %d times", run, i, w.whole[i], w.staged[i])
	}
	v := w.vals[i]
	w.wantRows = append(w.wantRows[:0], make([]byte, toyOutBytes)...)
	for _, row := range []int{0, w.crossRow, toyRows - 1} {
		for f, x := range []uint32{w.want()[i], v, ^v, toyTag} {
			binary.LittleEndian.PutUint32(w.wantRows[row*toyRowBytes+4*f:], x)
		}
	}
	if !bytes.Equal(w.rows[i], w.wantRows) {
		t.Fatalf("run %d: shard %d output differs from the kernel's records", run, i)
	}
}

// TestEngineModes runs the same toy WorkSet at every dispatch shape — a
// system below the host pool's parallel threshold and one above it, the
// ignored Pipeline setting bench/ passes to New, and a dead-DPU fault
// plan (TestRunInvariance is the full fault × core-count table) — each
// in the default single-rank topology AND split across several small
// ranks. Outputs must be identical everywhere; simulated launch
// accounting and transfer BYTES must be identical between a topology
// and its single-rank twin (rank grouping must never change what ran,
// only the modeled transfer time, which the rank-parallel model
// strictly shrinks).
func TestEngineModes(t *testing.T) {
	const shards = 24 // 3 full waves on 8 DPUs, 1 partial wave on 40
	vals := make([]uint32, shards)
	for i := range vals {
		vals[i] = uint32(1000 + 17*i)
	}
	deadPlan := &dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1}

	cases := []struct {
		name string
		dpus int
		mode host.PipelineMode
		plan *dpu.FaultPlan
		topo host.Topology
	}{
		{name: "serial", dpus: 8, mode: host.PipelineOff},
		{name: "sharded", dpus: 40, mode: host.PipelineOff}, // above the transfer pool's parallel threshold
		{name: "pipelined", dpus: 8, mode: host.PipelineOn},
		{name: "faulted", dpus: 8, mode: host.PipelineOff, plan: deadPlan},
		{name: "faulted-pipelined", dpus: 8, mode: host.PipelineOn, plan: deadPlan},
		// The same paths again, with the DPUs split into 2-DPU (or, for
		// the 40-DPU case, 8-DPU) ranks.
		{name: "serial-ranked", dpus: 8, mode: host.PipelineOff, topo: host.Topology{DPUsPerRank: 2}},
		{name: "sharded-ranked", dpus: 40, mode: host.PipelineOff, topo: host.Topology{DPUsPerRank: 8}},
		{name: "pipelined-ranked", dpus: 8, mode: host.PipelineOn, topo: host.Topology{DPUsPerRank: 2}},
		{name: "faulted-ranked", dpus: 8, mode: host.PipelineOff, plan: deadPlan, topo: host.Topology{DPUsPerRank: 2}},
		{name: "faulted-pipelined-ranked", dpus: 8, mode: host.PipelineOn, plan: deadPlan, topo: host.Topology{DPUsPerRank: 2}},
	}
	stats := make(map[string]exec.Stats)
	dpuTime := make(map[string]float64)
	xfers := make(map[string]host.XferStats)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newToySet(t, tc.dpus, vals, toyOpts{topo: tc.topo})
			eng := exec.New(w.sys, exec.Config{Pipeline: tc.mode})
			if tc.plan != nil {
				w.sys.InjectFaults(*tc.plan)
			}
			var st exec.Stats
			if err := eng.Run(w, &st); err != nil {
				t.Fatalf("Run: %v", err)
			}
			w.verify(t, "run")
			if tc.plan != nil && st.Retries == 0 {
				t.Error("fault plan injected but no re-dispatches recorded")
			}
			if tc.plan == nil && st.Retries != 0 {
				t.Errorf("fault-free run recorded %d retries", st.Retries)
			}
			if st.Cycles == 0 || st.Seconds <= 0 {
				t.Errorf("empty accounting: %+v", st)
			}
			if w.sys.DPUTime() <= 0 {
				t.Error("DPU clock did not advance")
			}
			stats[tc.name] = st
			dpuTime[tc.name] = w.sys.DPUTime().Seconds()
			xfers[tc.name] = w.sys.TransferStats()
		})
	}

	// The Pipeline setting must change nothing: same waves, same cycles,
	// same transfer traffic, same DPU clock.
	if stats["serial"] != stats["pipelined"] {
		t.Errorf("sync stats %+v != pipelined stats %+v", stats["serial"], stats["pipelined"])
	}
	if dpuTime["serial"] != dpuTime["pipelined"] {
		t.Errorf("sync DPUTime %g != pipelined %g", dpuTime["serial"], dpuTime["pipelined"])
	}
	if xfers["serial"] != xfers["pipelined"] {
		t.Errorf("sync transfers %+v != pipelined %+v", xfers["serial"], xfers["pipelined"])
	}
	if got := stats["serial"]; got.Waves != 3 || got.DPUsUsed != 8 {
		t.Errorf("8-DPU dispatch = %d waves on %d DPUs, want 3 on 8", got.Waves, got.DPUsUsed)
	}
	if got := stats["sharded"]; got.Waves != 1 || got.DPUsUsed != shards {
		t.Errorf("40-DPU dispatch = %d waves on %d DPUs, want 1 on %d", got.Waves, got.DPUsUsed, shards)
	}
	// Degraded runs pay for their retries in simulated time.
	for _, name := range []string{"faulted", "faulted-pipelined"} {
		if stats[name].Cycles <= stats["serial"].Cycles {
			t.Errorf("%s cycles %d not above fault-free %d", name, stats[name].Cycles, stats["serial"].Cycles)
		}
	}

	// Rank topology changes the modeled transfer time and nothing else:
	// same launch stats, same DPU clock, same bytes through the bus — and
	// with every multi-DPU transfer now charged only the busiest rank's
	// share, strictly less transfer time.
	for _, name := range []string{"serial", "sharded", "pipelined", "faulted", "faulted-pipelined"} {
		ranked := name + "-ranked"
		if stats[name] != stats[ranked] {
			t.Errorf("%s stats %+v != %s stats %+v", name, stats[name], ranked, stats[ranked])
		}
		if dpuTime[name] != dpuTime[ranked] {
			t.Errorf("%s DPUTime %g != %s %g", name, dpuTime[name], ranked, dpuTime[ranked])
		}
		flat, rk := xfers[name], xfers[ranked]
		if flat.Bytes != rk.Bytes || flat.Transfers != rk.Transfers {
			t.Errorf("%s traffic {%d, %dB} != %s {%d, %dB}",
				name, flat.Transfers, flat.Bytes, ranked, rk.Transfers, rk.Bytes)
		}
		if rk.Time >= flat.Time {
			t.Errorf("%s transfer time %v not below single-rank %v", ranked, rk.Time, flat.Time)
		}
	}
}

// TestWholeRankKill kills every DPU of one rank before the first wave
// and requires graceful degradation: every shard of the dead rank is
// re-dispatched onto a surviving rank's DPUs and the outputs stay
// bit-identical, with and without the ignored Pipeline setting.
func TestWholeRankKill(t *testing.T) {
	const nd, perRank = 8, 4
	vals := make([]uint32, 16) // 2 waves on 8 DPUs
	for i := range vals {
		vals[i] = uint32(500 + 31*i)
	}
	for _, mode := range []struct {
		name string
		mode host.PipelineMode
	}{{"sync", host.PipelineOff}, {"pipelined", host.PipelineOn}} {
		t.Run(mode.name, func(t *testing.T) {
			w := newToySet(t, nd, vals, toyOpts{topo: host.Topology{DPUsPerRank: perRank}})
			// Doom rank 1 (DPUs 4..7): each dies on its first launch.
			for i := perRank; i < nd; i++ {
				w.sys.DPU(i).InjectFaults(dpu.FaultPlan{Seed: 7, DeadFrac: 1}.NewInjector(i))
			}
			eng := exec.New(w.sys, exec.Config{Pipeline: mode.mode})
			var st exec.Stats
			if err := eng.Run(w, &st); err != nil {
				t.Fatalf("Run: %v", err)
			}
			w.verify(t, "run")
			if eng.NumDown() != perRank {
				t.Errorf("down DPUs = %d, want the whole %d-DPU rank", eng.NumDown(), perRank)
			}
			// Both waves lose the dead rank's shards to cross-rank remap.
			if st.Retries < perRank {
				t.Errorf("retries = %d, want >= %d (one per dead-rank shard per wave)", st.Retries, perRank)
			}
			if dead := w.sys.DeadDPUs(); len(dead) != perRank {
				t.Errorf("dead DPUs = %v, want all of rank 1", dead)
			}
		})
	}
}

// TestRedispatchKeepsCause: a launch that can never run (a WRAM data
// segment that leaves its tasklets under dpu.MinStackBytes of stack each)
// exhausts the re-dispatch attempts, and the error says why.
func TestRedispatchKeepsCause(t *testing.T) {
	w := newToySet(t, 2, []uint32{1, 2}, toyOpts{})
	if _, err := w.sys.Alloc(dpu.Layout{{Name: "hog", Kind: dpu.SymbolWRAM, Size: w.sys.DPU(0).WRAMFree() - dpu.MinStackBytes}}); err != nil {
		t.Fatal(err)
	}
	err := exec.New(w.sys, exec.Config{}).Run(w, &exec.Stats{})
	if _, wrapped := host.AsFaultReport(err); !wrapped || !strings.Contains(err.Error(), "bytes of stack each") {
		t.Errorf("Run = %v, want the re-dispatch failure wrapping the launch's stack error", err)
	}
}

// TestEngineDownDPUSticky: once a DPU dies, later dispatches on the same
// engine must route around it without being told again.
func TestEngineDownDPUSticky(t *testing.T) {
	vals := make([]uint32, 16)
	for i := range vals {
		vals[i] = uint32(3 + i)
	}
	w := newToySet(t, 8, vals, toyOpts{})
	eng := exec.New(w.sys, exec.Config{})
	w.sys.InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1})
	var st exec.Stats
	if err := eng.Run(w, &st); err != nil {
		t.Fatal(err)
	}
	if eng.NumDown() == 0 {
		t.Fatal("no DPUs marked down by the fault plan")
	}
	down := eng.NumDown()
	// Second dispatch: the down DPUs' shards are re-dispatched purely
	// from the sticky down set (no new faults needed for those shards).
	w.verify(t, "first run")
	if err := eng.Run(w, &st); err != nil {
		t.Fatal(err)
	}
	w.verify(t, "second run")
	if eng.NumDown() < down {
		t.Errorf("down count shrank: %d -> %d", down, eng.NumDown())
	}
}

// TestWaveSpans: Engine.Run records one "wave" span per wave, with and
// without the ignored Pipeline setting, and a "retry" span only when
// shards were re-dispatched, as children of the request span installed
// on the engine; the wave timeline is trace.WaveSpans' view of that
// trace. Every wave is completed before the next is issued, so spans
// never overlap. The per-DPU kernels ("dpu_kernel") recorded under the
// same root are in the trace and not in the view.
func TestWaveSpans(t *testing.T) {
	deadPlan := &dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1}
	for _, tc := range []struct {
		name string
		mode host.PipelineMode
		plan *dpu.FaultPlan
	}{
		{"depth1", host.PipelineOff, nil},
		{"depth2", host.PipelineOn, nil},
		{"depth1-faulted", host.PipelineOff, deadPlan},
		{"depth2-faulted", host.PipelineOn, deadPlan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]uint32, 24) // 3 waves on 8 DPUs
			w := newToySet(t, 8, vals, toyOpts{})
			if tc.plan != nil {
				w.sys.InjectFaults(*tc.plan)
			}
			eng := exec.New(w.sys, exec.Config{Pipeline: tc.mode})
			root := trace.NewTracer(trace.TracerConfig{}).StartTrace("run")
			eng.SetTraceSpan(root)
			var st exec.Stats
			if err := eng.Run(w, &st); err != nil {
				t.Fatal(err)
			}
			eng.SetTraceSpan(nil)
			root.End()
			w.verify(t, "run")
			spans := root.Trace().WaveSpans()
			count := map[string]int{}
			for _, s := range spans {
				count[s.Name]++
				if s.Shards != 8 {
					t.Errorf("span %q wave %d shards = %d, want 8", s.Name, s.Wave, s.Shards)
				}
			}
			if count["wave"] != 3 || len(count) > 2 {
				t.Errorf("spans %v, want 3 wave spans and nothing but wave/retry", count)
			}
			if got := count["retry"]; (got > 0) != (st.Retries > 0) || (tc.plan != nil) != (got > 0) {
				t.Errorf("%d retry spans with %d retries (fault plan: %v)", got, st.Retries, tc.plan != nil)
			}
			if mc := trace.MaxConcurrent(spans); mc != 1 {
				t.Errorf("MaxConcurrent = %d, want 1", mc)
			}
			if r := trace.Render(spans, 40); r == "" {
				t.Error("empty render")
			}
			all := map[string]int{}
			for _, n := range root.Trace().Spans() {
				all[n.Name]++
			}
			if all["dpu_kernel"] == 0 || count["dpu_kernel"] != 0 {
				t.Errorf("trace spans %v, view %v: want dpu_kernel children under the root and not in the view", all, count)
			}
		})
	}
}

// runOutcome is everything an Engine.Run may be observed by beyond its
// outputs, which every run checks (toySet.verify).
type runOutcome struct {
	Stats     exec.Stats
	DPUCycles []uint64
	Xfer      host.XferStats
	DPUTime   time.Duration
	Down      int
}

// toyShape is one row shape of an invariance table.
type toyShape struct {
	name       string
	nd, shards int
	opts       toyOpts
}

// TestRunInvariance runs one toy WorkSet — twice per engine, so the
// second run starts from the first's down set — over the shapes where
// the wave loop's accounting is easiest to get wrong (a partial single
// wave on a sharded system, a partial last wave, a second scatter
// stream), under each fault class and an armed zero plan, with each
// telemetry, at GOMAXPROCS 1, 2 and 4 (invarianceTable). Its waves
// declare enough work to fan out.
func TestRunInvariance(t *testing.T) {
	invarianceTable(t, []toyShape{
		{"24on40", 40, 24, toyOpts{work: toyFansOut}},
		{"20on8", 8, 20, toyOpts{work: toyFansOut}},
		{"20on8-two-stream", 8, 20, toyOpts{twoStream: true, work: toyFansOut}},
	}, nil)
}

// TestStreamInvariance is TestRunInvariance over the in-place streams
// (toySet's inPlace): a one-rank width with fewer shards than DPUs and
// a two-rank sharded one, both fanned out, and the one-rank width again
// with no work declared, on the caller at every core count. Every shard
// must also be delivered exactly once per run with the right bytes, in
// runs covering its rows in order (toySet.check), whole exactly when it
// was re-dispatched; at GOMAXPROCS=1 the gather runs inline on the
// caller in index order, so equality is the statement that fanning it
// out, or observing it, changes nothing simulated. Run under -race
// (make race does) it is also the race gate for the gather's Run on
// pool workers. Each pipelined cell runs once, with the ignored
// Pipeline setting bench/ passes, against its sync twin.
func TestStreamInvariance(t *testing.T) {
	invarianceTable(t, []toyShape{
		{"1x64", 64, 48, toyOpts{inPlace: true, work: toyFansOut}},
		{"2x64", 128, 128, toyOpts{inPlace: true, topo: host.Topology{DPUsPerRank: 64}, work: toyFansOut}},
		{"1x64-inline", 64, 48, toyOpts{inPlace: true}},
	}, []string{"sync", "pipelined"})
}

// invarianceTable runs each shape under each fault class. Outputs,
// exec.Stats, per-DPU cycles, all of TransferStats, the DPU clock and
// the down count must equal the telemetry-off/GOMAXPROCS=1 row; shards
// are re-dispatched exactly when the plan injects something; and the
// zero plan's row must equal the clean one. Given modes, each cell is
// named for its mode too, and every mode after the first runs once,
// with exec.Config{Pipeline: host.PipelineOn}, against the first's row.
func invarianceTable(t *testing.T, shapes []toyShape, modes []string) {
	faults := []struct {
		name string
		plan *dpu.FaultPlan
	}{
		{"clean", nil},
		{"zero", &dpu.FaultPlan{}},
		// A quarter of the DPUs die at the first launch.
		{"dead", &dpu.FaultPlan{Seed: 1, DeadFrac: 0.25}},
		// Doomed DPUs outlive the first launch: gathers fault
		// (transiently) too, and they die as re-dispatch targets or at
		// the second run's launch.
		{"dead-after-launch", &dpu.FaultPlan{Seed: 2, DeadFrac: 0.25, DeadAfterLaunches: 1, TransferProb: 0.05}},
		{"transient", &dpu.FaultPlan{Seed: 3, TransferProb: 0.2}},
	}
	if modes == nil {
		modes = []string{""}
	}
	clean, base := map[string]runOutcome{}, map[string]runOutcome{}
	for _, sh := range shapes {
		for _, fc := range faults {
			for m, mode := range modes {
				name := sh.name + "/" + fc.name
				if mode != "" {
					name += "/" + mode
				}
				t.Run(name, func(t *testing.T) {
					key := sh.name + "/" + fc.name
					if m > 0 {
						got := runToySet(t, 1, sh, fc.plan, exec.Config{Pipeline: host.PipelineOn}, "off")
						if !reflect.DeepEqual(got, base[key]) {
							t.Errorf("Pipeline setting diverges:\n got %s\nwant %s", got.summary(), base[key].summary())
						}
						return
					}
					for _, tel := range telemetries {
						for _, procs := range []int{1, 2, 4} {
							got := runToySet(t, procs, sh, fc.plan, exec.Config{}, tel)
							if tel == "off" && procs == 1 {
								base[key] = got
								if injects(fc.plan) != (got.Stats.Retries > 0) {
									t.Errorf("fault plan %+v but %d re-dispatches", fc.plan, got.Stats.Retries)
								}
								continue
							}
							if !reflect.DeepEqual(got, base[key]) {
								t.Errorf("telemetry %s GOMAXPROCS=%d diverges:\n got %s\nwant %s",
									tel, procs, got.summary(), base[key].summary())
							}
						}
					}
					switch fc.name {
					case "clean":
						clean[sh.name] = base[key]
					case "zero":
						if !reflect.DeepEqual(base[key], clean[sh.name]) {
							t.Errorf("armed zero plan diverges from clean:\n got %s\nwant %s", base[key].summary(), clean[sh.name].summary())
						}
					}
				})
			}
		}
	}
}

// telemetries is the observation axis of the invariance tables: nothing
// wired, a metrics registry wired before exec.New, or a request span
// installed on the engine.
var telemetries = []string{"off", "metrics", "tracing"}

// newEngine builds the engine an invariance row dispatches through,
// from cfg, with tel's telemetry wired.
func newEngine(sys *host.System, cfg exec.Config, tel string) *exec.Engine {
	if tel == "metrics" {
		sys.EnableMetrics(metrics.NewRegistry())
	}
	eng := exec.New(sys, cfg)
	if tel == "tracing" {
		eng.SetTraceSpan(trace.NewTracer(trace.TracerConfig{}).StartTrace("run"))
	}
	return eng
}

// injects reports whether plan is armed and not the zero plan.
func injects(plan *dpu.FaultPlan) bool { return plan != nil && !plan.Zero() }

// summary drops the bulky per-shard fields for failure messages.
func (o runOutcome) summary() string {
	var cyc uint64
	for _, c := range o.DPUCycles {
		cyc += c
	}
	return fmt.Sprintf("stats=%+v xfer=%+v dpuTime=%v down=%d sumDPUCycles=%d", o.Stats, o.Xfer, o.DPUTime, o.Down, cyc)
}

func runToySet(t *testing.T, procs int, sh toyShape, plan *dpu.FaultPlan, cfg exec.Config, tel string) runOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	vals := make([]uint32, sh.shards)
	for i := range vals {
		vals[i] = uint32(1000 + 17*i)
	}
	w := newToySet(t, sh.nd, vals, sh.opts)
	if plan != nil {
		w.sys.InjectFaults(*plan)
	}
	eng := newEngine(w.sys, cfg, tel)
	var st exec.Stats
	for run := 1; run <= 2; run++ {
		if err := eng.Run(w, &st); err != nil {
			t.Fatalf("GOMAXPROCS=%d run %d: %v", procs, run, err)
		}
		w.verify(t, fmt.Sprintf("GOMAXPROCS=%d run %d", procs, run))
		if !w.inPlace {
			continue
		}
		whole := 0
		for i := range w.vals {
			w.check(t, i, run)
			whole += w.whole[i]
		}
		// A shard is delivered whole exactly when it was re-dispatched.
		if whole != st.Retries {
			t.Fatalf("GOMAXPROCS=%d run %d: %d whole deliveries, %d re-dispatches", procs, run, whole, st.Retries)
		}
	}
	o := runOutcome{
		Stats: st, DPUCycles: make([]uint64, sh.nd),
		Xfer: w.sys.TransferStats(), DPUTime: w.sys.DPUTime(), Down: eng.NumDown(),
	}
	for i := range o.DPUCycles {
		o.DPUCycles[i] = w.sys.DPU(i).TotalCycles()
	}
	return o
}

// TestStreamFaultAllocBounded: a faulted in-place dispatch re-runs its
// failed shards through one input and one output buffer; buffering
// every shard from the first fault on would cost (shards−from) outputs
// per dispatch.
func TestStreamFaultAllocBounded(t *testing.T) {
	const nd = 64
	w := newToySet(t, nd, make([]uint32, nd), toyOpts{inPlace: true})
	// Shard 0's DPU dies at the first launch and is re-dispatched on
	// every later run.
	w.sys.DPU(0).InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 1}.NewInjector(0))
	eng := exec.New(w.sys, exec.Config{})
	var st exec.Stats
	run := func() {
		if err := eng.Run(w, &st); err != nil {
			t.Fatal(err)
		}
	}
	run() // marks DPU 0 down
	var before, after runtime.MemStats
	const rounds = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if st.Retries != rounds+1 {
		t.Fatalf("retries = %d, want one per dispatch (%d)", st.Retries, rounds+1)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if limit := float64(nd*toyOutBytes) / 4; perRun >= limit {
		t.Errorf("faulted dispatch allocates %.0f B, want < %.0f (no per-shard output buffering)", perRun, limit)
	}
}
