package host

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
)

// An MRAM broadcast stores each page once for the DPUs it reaches
// (dpu.MRAMBroadcast). What a caller sees must not know: a DPU that
// missed the broadcast keeps its old bytes, a redelivery to it touches it
// alone, and the next broadcast is right for everyone.

const bcastPage = 64 << 10

// failsOnce returns a plan under which DPU idx fails its first transfer
// and passes the next three, found by rolling a scratch DPU's injector.
func failsOnce(t *testing.T, idx int) dpu.FaultPlan {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		plan := dpu.FaultPlan{Seed: seed, TransferProb: 0.5}
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O0))
		d.InjectFaults(plan.NewInjector(idx))
		var fails [4]bool
		for i := range fails {
			_, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Buf: make([]byte, 8)}})
			fails[i] = err != nil
		}
		if fails == [4]bool{true} {
			return plan
		}
	}
	t.Fatal("no seed fails exactly the first transfer")
	return dpu.FaultPlan{}
}

// mramOf reads a symbol straight out of a DPU's memory, its injector set
// aside for the read.
func mramOf(t *testing.T, s *System, i int, ref SymbolRef) []byte {
	t.Helper()
	d := s.DPU(i)
	defer d.InjectFaults(d.InjectFaults(nil))
	got := make([]byte, int(ref.size))
	if _, err := d.Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: ref.off, Buf: got}}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBroadcastFaultKeepsOldBytes(t *testing.T) {
	const bad = 1
	// A ragged head, one whole page, a ragged tail.
	const off, n = 512, 2 * bcastPage
	for _, mode := range matrixModes {
		for _, kind := range []string{"transfer", "dead"} {
			for _, prior := range []string{"private", "shared"} {
				t.Run(mode.name+"/"+kind+"/"+prior, func(t *testing.T) {
					s := newTestSystem(t, mode.n)
					t.Cleanup(s.Close)
					if err := s.AllocMRAM("small", 8); err != nil {
						t.Fatal(err)
					}
					if err := s.AllocMRAM("bc", 3*bcastPage); err != nil {
						t.Fatal(err)
					}
					ref := resolve(t, s, "bc")
					if ref.off%bcastPage != 0 {
						t.Fatalf("page-sized symbol at %d, not on a page", ref.off)
					}
					rng := rand.New(rand.NewSource(int64(mode.n)))
					// model[i] is what DPU i's symbol must hold.
					model := make([][]byte, mode.n)
					if prior == "shared" {
						old := make([]byte, ref.size)
						rng.Read(old)
						if err := s.CopyToSymbolRef(ref, 0, old); err != nil {
							t.Fatal(err)
						}
						for i := range model {
							model[i] = bytes.Clone(old)
						}
					} else {
						for i := range model {
							model[i] = make([]byte, ref.size)
							rng.Read(model[i])
						}
						if err := s.PushXferRef(ref, 0, model); err != nil {
							t.Fatal(err)
						}
						for i := range model {
							model[i] = bytes.Clone(model[i])
						}
					}
					check := func(what string) {
						t.Helper()
						for i := range model {
							if !bytes.Equal(mramOf(t, s, i, ref), model[i]) {
								t.Fatalf("%s: DPU %d does not hold what it should", what, i)
							}
						}
					}
					check("before")

					if kind == "dead" {
						killDPU(t, s, bad)
					} else {
						armOne(s, bad, failsOnce(t, bad))
					}
					payload := make([]byte, n)
					rng.Read(payload)
					before := s.TransferStats()
					err := s.CopyToSymbolRef(ref, off, payload)
					rep, ok := AsFaultReport(err)
					if !ok || rep.Op != "copy_to" || rep.Attempted != mode.n {
						t.Fatalf("broadcast past a failing DPU returned %v", err)
					}
					if got := rep.FailedDPUs(); len(got) != 1 || got[0] != bad {
						t.Fatalf("failed DPUs %v, want [%d]", got, bad)
					}
					if after := s.TransferStats(); after.Transfers != before.Transfers+1 ||
						after.Bytes != before.Bytes+uint64(n*(mode.n-1)) {
						t.Errorf("charged %d transfers / %d bytes, want 1 / %d",
							after.Transfers-before.Transfers, after.Bytes-before.Bytes, n*(mode.n-1))
					}
					for i := range model {
						if i != bad {
							copy(model[i][off:], payload)
						}
					}
					check("after the faulted broadcast")

					// What exec's broadcastAll does next.
					err = s.CopyToDPURef(bad, ref, off, payload)
					if kind == "dead" {
						if !errors.Is(err, dpu.ErrDPUDead) {
							t.Fatalf("redelivery to a dead DPU returned %v", err)
						}
					} else {
						if err != nil {
							t.Fatal(err)
						}
						copy(model[bad][off:], payload)
					}
					check("after the redelivery")

					rng.Read(payload)
					err = s.CopyToSymbolRef(ref, off, payload)
					if kind == "dead" {
						if rep, ok := AsFaultReport(err); !ok || len(rep.Faults) != 1 || rep.Faults[0].DPU != bad {
							t.Fatalf("second broadcast returned %v", err)
						}
					} else if err != nil {
						t.Fatal(err)
					}
					for i := range model {
						if i != bad || kind != "dead" {
							copy(model[i][off:], payload)
						}
					}
					check("after the next broadcast")

					// And a private write after it stays private.
					own := bytes.Repeat([]byte{0x5a}, 64)
					if err := s.CopyToDPURef(0, ref, off+bcastPage, own); err != nil {
						t.Fatal(err)
					}
					copy(model[0][off+bcastPage:], own)
					check("after a private write")
				})
			}
		}
	}
}

// A broadcast the DMA rules reject fails on every DPU, as the per-DPU
// copies it replaces did, and moves nothing.
func TestBroadcastMisalignedFailsEverywhere(t *testing.T) {
	s, ref := waveSystem(t, 4)
	before := s.TransferStats()
	err := s.CopyToSymbolRef(ref, 0, make([]byte, 12))
	rep, ok := AsFaultReport(err)
	if !ok || len(rep.Faults) != 4 {
		t.Fatalf("unpadded MRAM broadcast returned %v, want a report naming all 4 DPUs", err)
	}
	if after := s.TransferStats(); after != before {
		t.Errorf("a broadcast that moved nothing was charged: %+v -> %+v", before, after)
	}
}

// Page alignment happens inside every DPU's allocator, in step: the
// system's symbols stay uniform, whether Resolve reads its own table or
// compares the DPUs'.
func TestAllocMRAMUniformAcrossDPUs(t *testing.T) {
	s := newTestSystem(t, 6)
	t.Cleanup(s.Close)
	sizes := map[string]int64{"head": 40, "big": bcastPage + 8, "tail": 16}
	for _, name := range []string{"head", "big", "tail"} {
		if err := s.AllocMRAM(name, sizes[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Allocated DPU by DPU, behind the system's back.
	for i := 0; i < s.NumDPUs(); i++ {
		if _, err := s.DPU(i).Alloc(dpu.Symbol{Name: "direct", Kind: dpu.SymbolMRAM, Size: 2 * bcastPage}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{"head": 0, "big": bcastPage, "tail": 3 * bcastPage, "direct": 4 * bcastPage}
	for name, off := range want {
		ref := resolve(t, s, name)
		if ref.off != off {
			t.Errorf("%s resolves to offset %d, want %d", name, ref.off, off)
		}
		for i := 0; i < s.NumDPUs(); i++ {
			if sym, ok := s.DPU(i).Symbol(name); !ok || sym.Offset != off {
				t.Errorf("%s on DPU %d at %d, want %d", name, i, sym.Offset, off)
			}
		}
	}
}
