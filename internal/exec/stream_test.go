package exec_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// toyStream is a minimal StreamSet: shard i carries one uint32 v, a Pre
// broadcast carries a multiplier and a Post broadcast an addend, and
// the kernel writes a 16-byte record (v*mul+add, v, ^v, mul) that
// Deliver copies out. delivered counts Deliver calls per shard.
type toyStream struct {
	sys       *host.System
	ss        exec.StreamSet
	out       [][]byte
	delivered []atomic.Int32
}

const (
	toyMul      = 3
	toyAdd      = 7
	toyOutBytes = 256 // the kernel fills the first 16; the rest reads zero
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
	refs := map[string]host.SymbolRef{}
	offs := map[string]int64{}
	for _, sym := range []struct {
		name string
		size int64
		wram bool
	}{{"ts_in", 8, false}, {"ts_mul", 8, false}, {"ts_add", 8, false}, {"ts_out", toyOutBytes, false}, {"ts_wram", 32, true}} {
		if sym.wram {
			err = sys.AllocWRAM(sym.name, sym.size)
		} else {
			err = sys.AllocMRAM(sym.name, sym.size)
		}
		if err != nil {
			t.Fatal(err)
		}
		if refs[sym.name], err = sys.Resolve(sym.name); err != nil {
			t.Fatal(err)
		}
		s, _ := sys.DPU(0).Symbol(sym.name)
		offs[sym.name] = s.Offset
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
		tk.WRAMToMRAM(offs["ts_out"], w, 16)
		return nil
	}
	ts := &toyStream{sys: sys, out: make([][]byte, nd), delivered: make([]atomic.Int32, nd)}
	in := make([][]byte, nd)
	for i := range in {
		in[i] = make([]byte, 8)
		binary.LittleEndian.PutUint32(in[i], uint32(1000+17*i))
		ts.out[i] = make([]byte, toyOutBytes)
	}
	word := func(v uint32) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint32(b, v)
		return b
	}
	ts.ss = exec.StreamSet{
		Shards:   nd,
		Tasklets: 2,
		Kernel:   kern,
		Pre:      []exec.Broadcast{{Ref: refs["ts_mul"], Data: word(toyMul)}},
		Scatter:  []exec.Stream{{Ref: refs["ts_in"], Bufs: in}},
		Post:     []exec.Broadcast{{Ref: refs["ts_add"], Data: word(toyAdd)}},
		OutRef:   refs["ts_out"],
		OutBytes: toyOutBytes,
		Ins: func(i int) []exec.Xfer {
			return []exec.Xfer{{Ref: refs["ts_in"], Data: in[i]}}
		},
		Deliver: func(i int, raw []byte) {
			ts.delivered[i].Add(1)
			copy(ts.out[i], raw)
		},
	}
	return ts
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
// right bytes, shards are re-dispatched exactly when the plan injects
// something, and everything observable (delivered bytes, exec.Stats,
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
		for i := range ts.out {
			if got := ts.delivered[i].Load(); got != int32(run) {
				t.Fatalf("GOMAXPROCS=%d run %d: shard %d delivered %d times", procs, run, i, got)
			}
			v := uint32(1000 + 17*i)
			for f, want := range []uint32{v*toyMul + toyAdd, v, ^v, toyMul} {
				if got := binary.LittleEndian.Uint32(ts.out[i][4*f:]); got != want {
					t.Fatalf("GOMAXPROCS=%d run %d: shard %d field %d = %d, want %d", procs, run, i, f, got, want)
				}
			}
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
// shards through one OutBytes buffer; it used to buffer every shard
// from the first fault on ((Shards−from)×OutBytes per stream).
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
