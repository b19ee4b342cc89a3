package exec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// toyStream is a minimal StreamSet: shard i carries one uint32 v, a Pre
// broadcast carries a multiplier and a Post broadcast an addend, and
// the kernel writes a 16-byte record (v*mul+add, v, ^v, mul) into rows
// 0, crossRow and toyRows-1 of its toyRows-row output, which Deliver
// copies out run by run. The output region crosses a 64 KiB MRAM page
// inside row crossRow, so every shard arrives as several runs, one of
// them that staged row, unless it is re-dispatched and delivered whole.
// Per shard: next is the row its next run must start at (0 between
// dispatches), delivered counts the dispatches that delivered it, whole
// those that did in one run, staged its staged crossRow runs, and bad
// records a run out of order.
type toyStream struct {
	sys       *host.System
	ss        exec.StreamSet
	crossRow  int
	out       [][]byte
	next      []int
	delivered []int
	whole     []int
	staged    []int
	bad       []string
}

const (
	toyMul      = 3
	toyAdd      = 7
	toyRows     = 3000
	toyRowBytes = 24
	toyOutBytes = toyRows * toyRowBytes
	toyPage     = 64 << 10 // the simulator's MRAM page
)

func newToyStream(t *testing.T, nd int, topo host.Topology) *toyStream {
	t.Helper()
	cfg := host.DefaultConfig(dpu.O3)
	cfg.Topology = topo
	sys, err := host.NewSystem(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	syms, err := sys.Alloc(dpu.Layout{{Name: "ts_in", Kind: dpu.SymbolMRAM, Size: 8}, {Name: "ts_mul", Kind: dpu.SymbolMRAM, Size: 8},
		{Name: "ts_add", Kind: dpu.SymbolMRAM, Size: 8}, {Name: "ts_out", Kind: dpu.SymbolMRAM, Size: toyOutBytes}, {Name: "ts_wram", Kind: dpu.SymbolWRAM, Size: 32}})
	if err != nil {
		t.Fatal(err)
	}
	refs, offs := map[string]host.SymbolRef{}, map[string]int64{}
	for _, ref := range syms {
		refs[ref.Name()], offs[ref.Name()] = ref, ref.Offset()
	}
	outOff := offs["ts_out"]
	pageEnd := (outOff/toyPage + 1) * toyPage
	crossRow := int((pageEnd - outOff) / toyRowBytes)
	if (pageEnd-outOff)%toyRowBytes == 0 || crossRow < 1 || crossRow >= toyRows-1 {
		t.Fatalf("ts_out at %d: no row strictly inside the region crosses the page end at %d", outOff, pageEnd)
	}
	w := offs["ts_wram"]
	kern := func(tk *dpu.Tasklet) error {
		if tk.ID() != 0 {
			return nil
		}
		tk.MRAMToWRAM(w, offs["ts_in"], 8)
		tk.MRAMToWRAM(w+8, offs["ts_mul"], 8)
		tk.MRAMToWRAM(w+16, offs["ts_add"], 8)
		v, mul, add := tk.Load32(w), tk.Load32(w+8), tk.Load32(w+16)
		tk.Store32(w, v*mul+add)
		tk.Store32(w+4, v)
		tk.Store32(w+8, ^v)
		tk.Store32(w+12, mul)
		for _, row := range []int{0, crossRow, toyRows - 1} {
			tk.WRAMToMRAM(outOff+int64(row*toyRowBytes), w, 16)
		}
		return nil
	}
	ts := &toyStream{
		sys: sys, crossRow: crossRow, out: make([][]byte, nd),
		next: make([]int, nd), delivered: make([]int, nd), whole: make([]int, nd), staged: make([]int, nd), bad: make([]string, nd),
	}
	for i := range ts.out {
		ts.out[i] = make([]byte, toyOutBytes)
	}
	word := func(v uint32) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint32(b, v)
		return b
	}
	ts.ss = exec.StreamSet{
		Shards:     nd,
		Tasklets:   2,
		Kernel:     kern,
		Pre:        []exec.Broadcast{{Ref: refs["ts_mul"], Data: word(toyMul)}},
		Post:       []exec.Broadcast{{Ref: refs["ts_add"], Data: word(toyAdd)}},
		InRef:      refs["ts_in"],
		InRows:     1,
		InRowBytes: 8,
		Fill: func(i, _, _ int, block []byte, _ int) {
			binary.LittleEndian.PutUint64(block, uint64(1000+17*i))
		},
		OutRef:      refs["ts_out"],
		OutRows:     toyRows,
		OutRowBytes: toyRowBytes,
		Deliver: func(i, first, count int, block []byte, blockStride int) {
			if first != ts.next[i] || count < 1 || first+count > toyRows {
				ts.bad[i] = fmt.Sprintf("run [%d, %d) after row %d", first, first+count, ts.next[i])
			}
			if first == 0 {
				ts.delivered[i]++
			}
			switch {
			case count == toyRows:
				ts.whole[i]++
			case first == crossRow && count == 1 && blockStride == 0:
				ts.staged[i]++
			}
			for r := 0; r < count; r++ {
				copy(ts.out[i][(first+r)*toyRowBytes:(first+r+1)*toyRowBytes], block[r*blockStride:])
			}
			ts.next[i] = (first + count) % toyRows
		},
	}
	return ts
}

// check asserts shard i's state after its run-th dispatch: delivered
// once per dispatch in runs covering [0, toyRows) in order, through the
// staged crossing row whenever it was not delivered whole, with the
// kernel's three records and zeros elsewhere.
func (ts *toyStream) check(t *testing.T, i, run int) {
	t.Helper()
	if ts.bad[i] != "" || ts.next[i] != 0 || ts.delivered[i] != run {
		t.Fatalf("run %d: shard %d delivered %d times, next row %d, %q", run, i, ts.delivered[i], ts.next[i], ts.bad[i])
	}
	if ts.staged[i] != run-ts.whole[i] {
		t.Fatalf("run %d: shard %d delivered whole %d times and through a staged row %d times", run, i, ts.whole[i], ts.staged[i])
	}
	v := uint32(1000 + 17*i)
	want := make([]byte, toyOutBytes)
	for _, row := range []int{0, ts.crossRow, toyRows - 1} {
		for f, w := range []uint32{v*toyMul + toyAdd, v, ^v, toyMul} {
			binary.LittleEndian.PutUint32(want[row*toyRowBytes+4*f:], w)
		}
	}
	if !bytes.Equal(ts.out[i], want) {
		t.Fatalf("run %d: shard %d output differs from the kernel's records", run, i)
	}
}

// streamOutcome is everything a stream run may be observed by.
type streamOutcome struct {
	Out       [][]byte
	Stats     exec.Stats
	DPUCycles []uint64
	Xfer      host.XferStats
	DPUTime   time.Duration
	Down      int
}

// TestStreamInvariance runs one toy StreamSet — twice per engine, so
// the second run starts from the first's down set — at one-rank and
// two-rank sharded widths, without and with the ignored Pipeline
// setting (the sync and pipelined cells), under each fault class and an
// armed zero plan, with each telemetry, at GOMAXPROCS 1, 2
// and 4. Every shard must be delivered exactly once per run with the
// right bytes, in runs covering its rows in order (toyStream.check),
// whole exactly when it was re-dispatched, shards are re-dispatched
// exactly when the plan injects something, and everything observable (delivered bytes, exec.Stats,
// per-DPU cycles, all of TransferStats, the DPU clock, the down count)
// must equal the telemetry-off GOMAXPROCS=1 row: there the gather runs
// inline on the caller in index order, so equality is the statement
// that fanning the gather out, or observing it, changes nothing
// simulated. The zero plan's row must equal the clean one. Run under
// -race (make ci does) it is also the race gate for Deliver on pool
// workers.
func TestStreamInvariance(t *testing.T) {
	widths := []struct {
		name string
		nd   int
		topo host.Topology
	}{
		{"1x64", 64, host.Topology{}},
		{"2x64", 128, host.Topology{DPUsPerRank: 64}},
	}
	faults := []struct {
		name string
		plan *dpu.FaultPlan
	}{
		{"clean", nil},
		{"zero", &dpu.FaultPlan{}},
		// A quarter of the DPUs die at the wave's launch.
		{"dead", &dpu.FaultPlan{Seed: 1, DeadFrac: 0.25}},
		// Doomed DPUs outlive the wave's launch: the gather itself
		// faults (transiently) and they die as re-dispatch targets or
		// at the second run's launch.
		{"dead-after-launch", &dpu.FaultPlan{Seed: 2, DeadFrac: 0.25, DeadAfterLaunches: 1, TransferProb: 0.05}},
		{"transient", &dpu.FaultPlan{Seed: 3, TransferProb: 0.05}},
	}
	modes := []struct {
		name string
		mode host.PipelineMode
	}{{"sync", host.PipelineOff}, {"pipelined", host.PipelineOn}}

	clean := map[string]streamOutcome{}
	for _, wd := range widths {
		for _, fc := range faults {
			for _, md := range modes {
				t.Run(wd.name+"/"+fc.name+"/"+md.name, func(t *testing.T) {
					var base streamOutcome
					for _, tel := range telemetries {
						for _, procs := range []int{1, 2, 4} {
							got := runToyStream(t, procs, wd.nd, wd.topo, fc.plan, md.mode, tel)
							if tel == "off" && procs == 1 {
								base = got
								if injects(fc.plan) != (got.Stats.Retries > 0) {
									t.Errorf("fault plan %+v but %d re-dispatches", fc.plan, got.Stats.Retries)
								}
								continue
							}
							if !reflect.DeepEqual(got, base) {
								t.Errorf("telemetry %s GOMAXPROCS=%d diverges from the telemetry-off GOMAXPROCS=1 row:\n got %+v\nwant %+v",
									tel, procs, summarize(got), summarize(base))
							}
						}
					}
					switch key := wd.name + "/" + md.name; fc.name {
					case "clean":
						clean[key] = base
					case "zero":
						if !reflect.DeepEqual(base, clean[key]) {
							t.Errorf("armed zero plan diverges from clean:\n got %+v\nwant %+v", summarize(base), summarize(clean[key]))
						}
					}
				})
			}
		}
	}
}

// summarize drops the bulky per-shard fields for failure messages.
func summarize(o streamOutcome) string {
	var cyc uint64
	for _, c := range o.DPUCycles {
		cyc += c
	}
	return fmt.Sprintf("stats=%+v xfer=%+v dpuTime=%v down=%d sumDPUCycles=%d", o.Stats, o.Xfer, o.DPUTime, o.Down, cyc)
}

func runToyStream(t *testing.T, procs, nd int, topo host.Topology, plan *dpu.FaultPlan, mode host.PipelineMode, tel string) streamOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ts := newToyStream(t, nd, topo)
	if plan != nil {
		ts.sys.InjectFaults(*plan)
	}
	eng := newEngine(ts.sys, exec.Config{Pipeline: mode}, tel)
	var st exec.Stats
	for run := 1; run <= 2; run++ {
		if err := eng.RunStream(&ts.ss, &st); err != nil {
			t.Fatalf("GOMAXPROCS=%d run %d: %v", procs, run, err)
		}
		whole := 0
		for i := range ts.out {
			ts.check(t, i, run)
			whole += ts.whole[i]
		}
		// A shard is delivered whole exactly when it was re-dispatched.
		if whole != st.Retries {
			t.Fatalf("GOMAXPROCS=%d run %d: %d whole deliveries, %d re-dispatches", procs, run, whole, st.Retries)
		}
	}
	o := streamOutcome{
		Out: ts.out, Stats: st, DPUCycles: make([]uint64, nd),
		Xfer: ts.sys.TransferStats(), DPUTime: ts.sys.DPUTime(), Down: eng.NumDown(),
	}
	for i := range o.DPUCycles {
		o.DPUCycles[i] = ts.sys.DPU(i).TotalCycles()
	}
	return o
}

// TestStreamFaultAllocBounded: a faulted stream re-runs its failed
// shards through one output-sized buffer; it used to buffer every shard
// from the first fault on ((Shards−from) outputs per stream).
func TestStreamFaultAllocBounded(t *testing.T) {
	const nd = 64
	ts := newToyStream(t, nd, host.Topology{})
	// Shard 0's DPU dies at the first launch: the old path buffered all
	// 64 shards on every later stream.
	ts.sys.DPU(0).InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 1}.NewInjector(0))
	eng := exec.New(ts.sys, exec.Config{})
	var st exec.Stats
	run := func() {
		if err := eng.RunStream(&ts.ss, &st); err != nil {
			t.Fatal(err)
		}
	}
	run() // marks DPU 0 down and warms the gather buffers
	var before, after runtime.MemStats
	const rounds = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if st.Retries != rounds+1 {
		t.Fatalf("retries = %d, want one per stream (%d)", st.Retries, rounds+1)
	}
	perStream := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if limit := float64(nd*toyOutBytes) / 4; perStream >= limit {
		t.Errorf("faulted stream allocates %.0f B, want < %.0f (no per-shard output buffering)", perStream, limit)
	}
}
