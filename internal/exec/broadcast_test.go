package exec_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// The host stores a broadcast's pages once for the DPUs it reached. The
// engine's recovery on top of that: a DPU that missed the payload gets it
// redelivered — to it alone — or is marked down, and the next broadcast
// over the range is right on every DPU still up.
func TestBroadcastRedeliveryOverSharedPages(t *testing.T) {
	const (
		bad  = 2
		page = 64 << 10
		off  = 1024
		n    = 2 * page
	)
	// A plan under which DPU bad fails its first transfer and passes the
	// following ones, found by rolling a scratch DPU's injector.
	var once dpu.FaultPlan
	for seed := int64(1); once.Zero(); seed++ {
		plan := dpu.FaultPlan{Seed: seed, TransferProb: 0.5}
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O0))
		d.InjectFaults(plan.NewInjector(bad))
		fails := func() bool {
			_, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Buf: make([]byte, 8)}})
			return err != nil
		}
		if fails() && !fails() && !fails() && !fails() {
			once = plan
		}
	}
	for _, nd := range []int{4, 40} {
		for _, dead := range []bool{false, true} {
			sys, err := host.NewSystem(nd, host.DefaultConfig(dpu.O3))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			if err := sys.AllocMRAM("bc", 3*page); err != nil {
				t.Fatal(err)
			}
			ref, err := sys.Resolve("bc")
			if err != nil {
				t.Fatal(err)
			}
			sym, _ := sys.DPU(0).Symbol("bc")
			eng := exec.New(sys, exec.Config{})
			rng := rand.New(rand.NewSource(int64(nd)))
			want := make([]byte, 3*page)
			rng.Read(want)
			if err := eng.Broadcast(exec.Broadcast{Ref: ref, Data: want}); err != nil {
				t.Fatal(err)
			}
			stale := bytes.Clone(want)
			check := func(what string) {
				t.Helper()
				for i := 0; i < nd; i++ {
					got := make([]byte, len(want))
					prev := sys.DPU(i).InjectFaults(nil) // read past the injector
					_, err := sys.DPU(i).Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: sym.Offset, Buf: got}})
					if sys.DPU(i).InjectFaults(prev); err != nil {
						t.Fatal(err)
					}
					exp := want
					if eng.Down(i) {
						exp = stale
					}
					if !bytes.Equal(got, exp) {
						t.Fatalf("%d DPUs, dead=%v, %s: DPU %d (down=%v) does not hold what it should", nd, dead, what, i, eng.Down(i))
					}
				}
			}

			if dead {
				sys.DPU(bad).InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 1}.NewInjector(bad))
				if err := sys.RunWave(host.Wave{Start: bad, DPUs: 1, Tasklets: 1, Kernel: func(*dpu.Tasklet) error { return nil }}); err == nil {
					t.Fatal("doomed DPU launched")
				}
			} else {
				sys.DPU(bad).InjectFaults(once.NewInjector(bad))
			}
			for round := 0; round < 2; round++ {
				payload := make([]byte, n)
				rng.Read(payload)
				copy(want[off:], payload)
				if err := eng.Broadcast(exec.Broadcast{Ref: ref, Off: off, Data: payload}); err != nil {
					t.Fatal(err)
				}
				if eng.Down(bad) != dead || eng.NumDown() > 1 {
					t.Fatalf("%d DPUs, dead=%v: DPU %d down=%v, %d down in all", nd, dead, bad, eng.Down(bad), eng.NumDown())
				}
				check("after a broadcast")
			}
		}
	}
}
