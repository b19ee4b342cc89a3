package host

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pimdnn/internal/dpu"
)

// armOne arms a single DPU with the given fault plan, leaving the rest
// of the system fault-free.
func armOne(s *System, idx int, plan dpu.FaultPlan) {
	s.DPU(idx).InjectFaults(plan.NewInjector(idx))
}

// killDPU arms idx with an immediate-death plan and burns one launch so
// the DPU is already dead when the test's operation runs.
func killDPU(t *testing.T, s *System, idx int) {
	t.Helper()
	armOne(s, idx, dpu.FaultPlan{Seed: 1, DeadFrac: 1, DeadAfterLaunches: 0})
	err := s.RunWave(Wave{Start: idx, DPUs: 1, Tasklets: 1, Kernel: func(tk *dpu.Tasklet) error { return nil }})
	if !errors.Is(err, dpu.ErrDPUDead) {
		t.Fatalf("killDPU: launch on doomed DPU: %v", err)
	}
}

// matrixModes covers the serial transfer path (below parallelThreshold)
// and the sharded worker-pool path (above it).
var matrixModes = []struct {
	name string
	n    int
}{
	{"serial", 4},
	{"sharded", 40},
}

// TestTransferFaultMatrix: each transfer op (copy_to broadcast,
// push_xfer scatter, gather, scatter_rows, a wave's in-place gather,
// single-DPU copy) under an injected transfer fault, under a dead DPU
// and with the zero plan armed on every DPU, in both serial and sharded
// modes. Every surviving DPU completes, the FaultReport names exactly
// the armed DPU (the zero plan fails none), and the transfer clock is
// charged for exactly the DPUs that moved bytes.
func TestTransferFaultMatrix(t *testing.T) {
	kinds := []struct {
		name string
		arm  func(t *testing.T, s *System, idx int)
		dead bool
		zero bool
	}{
		{"transfer", func(t *testing.T, s *System, idx int) {
			armOne(s, idx, dpu.FaultPlan{Seed: 1, TransferProb: 1})
		}, false, false},
		{"dead", killDPU, true, false},
		{"zero", func(t *testing.T, s *System, idx int) { s.InjectFaults(dpu.FaultPlan{}) }, false, true},
	}
	const bad = 1
	const perDPU = 64
	for _, mode := range matrixModes {
		for _, kind := range kinds {
			t.Run(mode.name+"/"+kind.name, func(t *testing.T) {
				s, ref := waveSystem(t, mode.n)
				kind.arm(t, s, bad)
				data := bytes.Repeat([]byte{0xAB}, perDPU)
				nOK := mode.n - 1
				if kind.zero {
					nOK = mode.n
				}

				checkReport := func(err error, op string) {
					t.Helper()
					if kind.zero {
						if err != nil {
							t.Fatalf("%s under the zero plan: %v", op, err)
						}
						return
					}
					rep, ok := AsFaultReport(err)
					if !ok {
						t.Fatalf("%s: error %v is not a *FaultReport", op, err)
					}
					if rep.Op != op || rep.Attempted != mode.n {
						t.Fatalf("%s: report op=%q attempted=%d, want op=%q attempted=%d",
							op, rep.Op, rep.Attempted, op, mode.n)
					}
					if got := rep.FailedDPUs(); len(got) != 1 || got[0] != bad {
						t.Fatalf("%s: failed DPUs %v, want [%d]", op, got, bad)
					}
					if !errors.Is(err, dpu.ErrFaultInjected) {
						t.Errorf("%s: report does not wrap ErrFaultInjected: %v", op, err)
					}
					if errors.Is(err, dpu.ErrDPUDead) != kind.dead {
						t.Errorf("%s: ErrDPUDead=%v, want %v", op, !kind.dead, kind.dead)
					}
					if rep.ErrFor(bad) == nil || rep.ErrFor(0) != nil {
						t.Errorf("%s: ErrFor(bad)=%v ErrFor(0)=%v", op, rep.ErrFor(bad), rep.ErrFor(0))
					}
				}
				checkCharge := func(op string, before XferStats, nOK int) {
					t.Helper()
					after := s.TransferStats()
					if after.Transfers != before.Transfers+1 {
						t.Errorf("%s: transfers %d -> %d, want one charge", op, before.Transfers, after.Transfers)
					}
					if want := before.Bytes + uint64(perDPU*nOK); after.Bytes != want {
						t.Errorf("%s: bytes %d, want %d (%d bytes x %d surviving DPUs)",
							op, after.Bytes, want, perDPU, nOK)
					}
				}

				before := s.TransferStats()
				checkReport(s.CopyToSymbolRef(ref, 0, data), "copy_to")
				checkCharge("copy_to", before, nOK)

				bufs := make([][]byte, mode.n)
				for i := range bufs {
					bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, perDPU)
				}
				before = s.TransferStats()
				checkReport(s.PushXferRef(ref, 0, bufs), "push_xfer")
				checkCharge("push_xfer", before, nOK)

				dst := make([][]byte, mode.n)
				for i := range dst {
					dst[i] = bytes.Repeat([]byte{0xEE}, perDPU)
				}
				before = s.TransferStats()
				checkReport(s.GatherXferRefInto(ref, 0, perDPU, dst), "gather")
				checkCharge("gather", before, nOK)
				// Surviving DPUs round-tripped their scatter payload; the
				// armed DPU's destination buffer is untouched.
				for i := range dst {
					want := bufs[i]
					if i == bad && !kind.zero {
						want = bytes.Repeat([]byte{0xEE}, perDPU)
					}
					if !bytes.Equal(dst[i], want) {
						t.Errorf("gather DPU %d: got % x..., want % x...", i, dst[i][:4], want[:4])
					}
				}

				// The rows scatter fills each DPU's rows in place, and
				// zeroes them on the last DPU, beyond its width; the rows
				// gather reads them back. A DPU whose transfer fails keeps
				// its MRAM byte for byte and never sees fill; its shard,
				// filled again into one buffer and pushed to a survivor,
				// lands the fault-free bytes.
				const rowBytes = 8
				shard := func(i int) []byte { return bytes.Repeat([]byte{byte(0x80 + i)}, perDPU) }
				fill := func(i, first, count int, block []byte, blockStride int) {
					for r := range count {
						copy(block[r*blockStride:r*blockStride+rowBytes], shard(i)[(first+r)*rowBytes:])
					}
				}
				mram := func(i int) []byte { return mramOf(t, s, i, ref)[:perDPU] }
				kept, filled := mram(bad), make([]int, mode.n)
				before = s.TransferStats()
				checkReport(s.ScatterRows(ref, perDPU/rowBytes, rowBytes, mode.n-1, func(i, first, count int, block []byte, blockStride int) {
					filled[i] += count
					fill(i, first, count, block, blockStride)
				}), "scatter_rows")
				checkCharge("scatter_rows", before, nOK)
				for i, rows := range filled {
					want := perDPU / rowBytes
					if i == mode.n-1 || i == bad && !kind.zero {
						want = 0
					}
					if rows != want {
						t.Errorf("scatter_rows DPU %d: %d rows filled, want %d", i, rows, want)
					}
				}
				if got := mram(bad); !kind.zero && !bytes.Equal(got, kept) {
					t.Errorf("scatter_rows wrote failed DPU %d: % x, was % x", bad, got, kept)
				}

				// An in-place wave gather visits each DPU's runs in order;
				// they must reassemble what the rows scatter wrote.
				got, next := make([][]byte, mode.n), make([]int, mode.n)
				before = s.TransferStats()
				checkReport(s.RunWave(Wave{DPUs: mode.n, Tasklets: 1, Kernel: func(*dpu.Tasklet) error { return nil },
					Gather: ref, Rows: perDPU / rowBytes, RowBytes: rowBytes, Visit: func(i, first, count int, block []byte, blockStride int) {
						if first != next[i] {
							t.Errorf("wave gather DPU %d: run at row %d, want %d", i, first, next[i])
						}
						for r := range count {
							got[i] = append(got[i], block[r*blockStride:r*blockStride+rowBytes]...)
						}
						next[i] = first + count
					}}), "wave")
				checkCharge("wave", before, nOK)
				for i := range got {
					want := shard(i)
					switch {
					case i == bad && !kind.zero:
						want = nil
					case i == mode.n-1:
						want = make([]byte, perDPU)
					}
					if !bytes.Equal(got[i], want) {
						t.Errorf("wave gather DPU %d: got % x, want % x", i, got[i], want)
					}
				}
				retry := make([]byte, perDPU)
				fill(bad, 0, perDPU/rowBytes, retry, rowBytes)
				if err := s.CopyToDPURef(0, ref, 0, retry); err != nil || !bytes.Equal(mram(0), shard(bad)) {
					t.Errorf("scatter_rows re-dispatch of shard %d: %v, % x", bad, err, mram(0))
				}

				// Single-DPU copy: charged only on success.
				before = s.TransferStats()
				if !kind.zero {
					err := s.CopyToDPURef(bad, ref, 0, data)
					rep, ok := AsFaultReport(err)
					if !ok || rep.Op != "copy_to_dpu" || rep.Attempted != 1 {
						t.Fatalf("copy_to_dpu: %v", err)
					}
					if after := s.TransferStats(); after != before {
						t.Errorf("copy_to_dpu on faulted DPU changed stats: %+v -> %+v", before, after)
					}
				}
				if err := s.CopyToDPURef(0, ref, 0, data); err != nil {
					t.Fatalf("copy_to_dpu on healthy DPU: %v", err)
				}
				if after := s.TransferStats(); after.Transfers != before.Transfers+1 ||
					after.Bytes != before.Bytes+perDPU {
					t.Errorf("copy_to_dpu success charge: %+v -> %+v", before, s.TransferStats())
				}
			})
		}
	}
}

// TestTransferAllFailedNoCharge: when every DPU faults, nothing moved,
// so the transfer clock must not advance at all.
func TestTransferAllFailedNoCharge(t *testing.T) {
	s, ref := waveSystem(t, 2)
	s.InjectFaults(dpu.FaultPlan{Seed: 3, TransferProb: 1})
	before := s.TransferStats()
	err := s.CopyToSymbolRef(ref, 0, make([]byte, 64))
	rep, ok := AsFaultReport(err)
	if !ok || len(rep.Faults) != 2 {
		t.Fatalf("want a 2-fault report, got %v", err)
	}
	if after := s.TransferStats(); after != before {
		t.Errorf("all-failed transfer charged the clock: %+v -> %+v", before, after)
	}
}

// TestLaunchFaultMatrix: a trapped and a dying DPU under LaunchOn, and
// the zero plan armed on every DPU, in serial and sharded modes. The
// failed DPU's cycle counter must not move (the zero plan fails none),
// the survivors are charged normally, and the system DPU clock advances
// by exactly the surviving maximum.
func TestLaunchFaultMatrix(t *testing.T) {
	kinds := []struct {
		name string
		plan dpu.FaultPlan
		dead bool
	}{
		{"trap", dpu.FaultPlan{Seed: 1, TrapProb: 1}, false},
		{"dead", dpu.FaultPlan{Seed: 1, DeadFrac: 1, DeadAfterLaunches: 0}, true},
		{"zero", dpu.FaultPlan{}, false},
	}
	const bad = 1
	kernel := func(tk *dpu.Tasklet) error {
		tk.ChargeBulk(dpu.OpAddInt, 64)
		return nil
	}
	for _, mode := range matrixModes {
		for _, kind := range kinds {
			t.Run(mode.name+"/"+kind.name, func(t *testing.T) {
				s, _ := waveSystem(t, mode.n)
				zero := kind.plan.Zero()
				if zero {
					s.InjectFaults(kind.plan)
				} else {
					armOne(s, bad, kind.plan)
				}

				cyclesBefore := make([]uint64, mode.n)
				for i := range cyclesBefore {
					cyclesBefore[i] = s.DPU(i).TotalCycles()
				}
				xferBefore := s.TransferStats()
				timeBefore := s.DPUTime()

				ls, err := s.LaunchOn(mode.n, 2, kernel)
				if zero {
					if err != nil {
						t.Fatalf("launch under the zero plan: %v", err)
					}
				} else {
					rep, ok := AsFaultReport(err)
					if !ok || rep.Op != "launch" || rep.Attempted != mode.n {
						t.Fatalf("launch report: %v", err)
					}
					if got := rep.FailedDPUs(); len(got) != 1 || got[0] != bad {
						t.Fatalf("failed DPUs %v, want [%d]", got, bad)
					}
					if errors.Is(err, dpu.ErrDPUDead) != kind.dead {
						t.Errorf("ErrDPUDead=%v, want %v", !kind.dead, kind.dead)
					}
				}

				// Per-DPU clocks: the armed DPU never ran, everyone else did.
				var maxDelta uint64
				for i := 0; i < mode.n; i++ {
					delta := s.DPU(i).TotalCycles() - cyclesBefore[i]
					if i == bad && !zero {
						if delta != 0 {
							t.Errorf("faulted DPU advanced %d cycles", delta)
						}
						continue
					}
					if delta == 0 {
						t.Errorf("surviving DPU %d did not advance", i)
					}
					if delta > maxDelta {
						maxDelta = delta
					}
				}
				if ls.Cycles != maxDelta {
					t.Errorf("LaunchStats.Cycles %d, want surviving max %d", ls.Cycles, maxDelta)
				}
				if len(ls.PerDPU) != mode.n || (ls.PerDPU[bad].Cycles == 0) != !zero {
					t.Errorf("PerDPU[bad] = %+v, want zero Stats exactly when it failed", ls.PerDPU[bad])
				}
				// System clock: advanced by the surviving maximum, not by a
				// hypothetical full-width launch; transfer clock untouched.
				if got := s.DPUTime() - timeBefore; got != ls.Time {
					t.Errorf("DPUTime advanced %v, launch charged %v", got, ls.Time)
				}
				if s.TransferStats() != xferBefore {
					t.Errorf("launch fault changed transfer stats")
				}

				// A one-DPU wave launching on the armed DPU reports it and
				// charges nothing.
				timeBefore = s.DPUTime()
				if err := s.RunWave(Wave{Start: bad, DPUs: 1, Tasklets: 1, Kernel: kernel}); zero != (err == nil) {
					t.Errorf("one-DPU wave on armed DPU: %v", err)
				} else if rep, ok := AsFaultReport(err); !zero && (!ok || rep.Op != "wave" || rep.Attempted != 1 || rep.ErrFor(bad) == nil) {
					t.Errorf("one-DPU wave report: %v", err)
				} else if !zero && s.DPUTime() != timeBefore {
					t.Errorf("failed one-DPU wave advanced DPUTime by %v", s.DPUTime()-timeBefore)
				}

				if kind.dead {
					// Death is permanent: transfers now fail too.
					if err := s.CopyToDPURef(bad, mustRef(t, s, "wbuf"), 0, make([]byte, 8)); !errors.Is(err, dpu.ErrDPUDead) {
						t.Errorf("transfer to dead DPU: %v", err)
					}
				}
			})
		}
	}
}

func mustRef(t *testing.T, s *System, sym string) SymbolRef {
	t.Helper()
	ref, err := s.Resolve(sym)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestWaveFaultMatrix: each fault kind inside a fused wave.
// The wave is best-effort per DPU and phase-granular: a DPU that fails
// its scatter is neither launched nor gathered, a DPU that traps still
// had its scatter charged, and the wave's transfer/launch charges cover
// exactly the DPUs that reached each phase.
func TestWaveFaultMatrix(t *testing.T) {
	const n = 4
	const bad = 2
	const perDPU = 32
	kinds := []struct {
		name string
		arm  func(t *testing.T, s *System, idx int)
		dead bool
		// scattered is how many DPUs complete the scatter phase.
		scattered int
	}{
		{"transfer", func(t *testing.T, s *System, idx int) {
			armOne(s, idx, dpu.FaultPlan{Seed: 1, TransferProb: 1})
		}, false, n - 1},
		{"trap", func(t *testing.T, s *System, idx int) {
			armOne(s, idx, dpu.FaultPlan{Seed: 1, TrapProb: 1})
		}, false, n},
		{"dead", killDPU, true, n - 1},
	}
	kernel := func(tk *dpu.Tasklet) error {
		tk.ChargeBulk(dpu.OpAddInt, 16)
		return nil
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			s, ref := waveSystem(t, n)
			kind.arm(t, s, bad)

			in := make([][]byte, n)
			out := make([][]byte, n)
			for i := range in {
				in[i] = bytes.Repeat([]byte{byte(0x30 + i)}, perDPU)
				out[i] = bytes.Repeat([]byte{0xEE}, perDPU)
			}
			cyclesBefore := make([]uint64, n)
			for i := range cyclesBefore {
				cyclesBefore[i] = s.DPU(i).TotalCycles()
			}
			xferBefore := s.TransferStats()
			timeBefore := s.DPUTime()

			var ws LaunchStats
			err := s.RunWave(Wave{
				DPUs: n, Tasklets: 1, Kernel: kernel, Stats: &ws,
				Scatter: ref, In: in,
				Gather: ref, Out: out,
			})
			rep, ok := AsFaultReport(err)
			if !ok || rep.Op != "wave" || rep.Attempted != n {
				t.Fatalf("wave report: %v", err)
			}
			if got := rep.FailedDPUs(); len(got) != 1 || got[0] != bad {
				t.Fatalf("failed DPUs %v, want [%d]", got, bad)
			}
			if !errors.Is(err, dpu.ErrFaultInjected) || errors.Is(err, dpu.ErrDPUDead) != kind.dead {
				t.Errorf("wave error classes wrong: %v", err)
			}

			// Surviving DPUs completed the round trip; the armed DPU's
			// output buffer is untouched.
			for i := range out {
				want := in[i]
				if i == bad {
					want = bytes.Repeat([]byte{0xEE}, perDPU)
				}
				if !bytes.Equal(out[i], want) {
					t.Errorf("wave DPU %d output wrong", i)
				}
			}

			// Phase-granular charging: one scatter charge covering the DPUs
			// that scattered, one gather charge covering the survivors.
			xferAfter := s.TransferStats()
			if xferAfter.Transfers != xferBefore.Transfers+2 {
				t.Errorf("wave made %d transfer charges, want 2", xferAfter.Transfers-xferBefore.Transfers)
			}
			wantBytes := uint64(perDPU*kind.scattered + perDPU*(n-1))
			if got := xferAfter.Bytes - xferBefore.Bytes; got != wantBytes {
				t.Errorf("wave moved %d bytes, want %d", got, wantBytes)
			}

			// Launch charging: surviving max only; the armed DPU's clock
			// must not move even when its scatter succeeded (trap kind).
			var maxDelta uint64
			for i := 0; i < n; i++ {
				delta := s.DPU(i).TotalCycles() - cyclesBefore[i]
				if i == bad && delta != 0 {
					t.Errorf("faulted DPU advanced %d cycles", delta)
				}
				if delta > maxDelta {
					maxDelta = delta
				}
			}
			if ws.Cycles != maxDelta || ws.PerDPU[bad].Cycles != 0 {
				t.Errorf("wave stats cycles=%d PerDPU[bad]=%+v, want cycles=%d, zero",
					ws.Cycles, ws.PerDPU[bad], maxDelta)
			}
			if got := s.DPUTime() - timeBefore; got != ws.Time {
				t.Errorf("DPUTime advanced %v, wave charged %v", got, ws.Time)
			}
		})
	}
}

// TestCheckRefOverflow: a huge offset must be rejected, not wrap
// int64 arithmetic into an accepted range.
func TestCheckRefOverflow(t *testing.T) {
	s, ref := waveSystem(t, 2)
	data := make([]byte, 8)
	for _, off := range []int64{math.MaxInt64, math.MaxInt64 - 4, -1, ref.size + 1} {
		if err := s.CopyToSymbolRef(ref, off, data); err == nil {
			t.Errorf("offset %d accepted", off)
		}
		if err := s.GatherXferRefInto(ref, off, 8, [][]byte{data, data}); err == nil {
			t.Errorf("gather offset %d accepted", off)
		}
	}
	// The boundary itself is fine: a zero-length tail write at size.
	if err := s.CopyToSymbolRef(ref, ref.size-8, data); err != nil {
		t.Errorf("in-range tail write rejected: %v", err)
	}
}

// TestPad8Aliasing pins the documented contract for both branches:
// aligned input is returned as-is (aliasing the caller's slice),
// unaligned input is copied into a fresh zero-padded buffer.
func TestPad8Aliasing(t *testing.T) {
	aligned := bytes.Repeat([]byte{7}, 16)
	p, orig := Pad8(aligned)
	if orig != 16 || len(p) != 16 {
		t.Fatalf("aligned Pad8: len=%d orig=%d", len(p), orig)
	}
	if &p[0] != &aligned[0] {
		t.Error("aligned Pad8 must alias its input")
	}

	unaligned := bytes.Repeat([]byte{9}, 13)
	p, orig = Pad8(unaligned)
	if orig != 13 || len(p) != 16 {
		t.Fatalf("unaligned Pad8: len=%d orig=%d", len(p), orig)
	}
	if &p[0] == &unaligned[0] {
		t.Error("unaligned Pad8 must copy, not alias")
	}
	if !bytes.Equal(p[:13], unaligned) || !bytes.Equal(p[13:], []byte{0, 0, 0}) {
		t.Errorf("unaligned Pad8 contents wrong: % x", p)
	}
	p[0] = 0xFF
	if unaligned[0] != 9 {
		t.Error("mutating the padded copy reached the original")
	}
}
