package host

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pimdnn/internal/dpu"
)

// queueSystem allocates a small system with one MRAM scratch symbol.
func queueSystem(t *testing.T, n int) (*System, SymbolRef) {
	t.Helper()
	s := newTestSystem(t, n)
	t.Cleanup(s.Close)
	if err := s.AllocMRAM("qbuf", 256); err != nil {
		t.Fatal(err)
	}
	ref, err := s.Resolve("qbuf")
	if err != nil {
		t.Fatal(err)
	}
	return s, ref
}

// TestAsyncRoundTrip: a queued scatter → launch → gather sequence must
// move the same bytes and charge the same simulated time as the
// synchronous calls it mirrors.
func TestAsyncRoundTrip(t *testing.T) {
	s, ref := queueSystem(t, 4)
	in := make([][]byte, 4)
	out := make([][]byte, 4)
	for i := range in {
		in[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
		out[i] = make([]byte, 64)
	}
	kernel := func(tk *dpu.Tasklet) error {
		tk.Charge(dpu.OpAddInt, 7)
		return nil
	}
	var ls LaunchStats
	s.EnqueuePushXfer(ref, 0, in)
	s.EnqueueLaunch(4, 2, kernel, &ls)
	p := s.EnqueueGather(ref, 0, 64, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !bytes.Equal(out[i], in[i]) {
			t.Errorf("DPU %d round trip mismatch", i)
		}
	}
	// The queued launch produced real stats, identical to what a direct
	// LaunchOn reports for the same kernel.
	direct, err := s.LaunchOn(4, 2, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Cycles == 0 || ls.Cycles != direct.Cycles {
		t.Errorf("async launch cycles %d, direct %d", ls.Cycles, direct.Cycles)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestWaveMatchesDiscreteCommands: one fused wave must move the same
// data and report the same launch statistics as the discrete
// scatter/launch/gather sequence.
func TestWaveMatchesDiscreteCommands(t *testing.T) {
	s, ref := queueSystem(t, 4)
	if err := s.AllocMRAM("qout", 64); err != nil {
		t.Fatal(err)
	}
	oref, err := s.Resolve("qout")
	if err != nil {
		t.Fatal(err)
	}
	// Kernel: copy the first 16 bytes of qbuf into qout, negated.
	kernel := func(tk *dpu.Tasklet) error {
		d := tk.DPU()
		buf := make([]byte, 16)
		if err := d.CopyFromMRAMInto(ref.off, buf); err != nil {
			return err
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
		tk.ChargeBulk(dpu.OpAddInt, 16)
		return d.CopyToMRAM(oref.off, buf)
	}
	in := make([][]byte, 3)
	out := make([][]byte, 3)
	for i := range in {
		in[i] = bytes.Repeat([]byte{byte(0x10 * (i + 1))}, 16)
		out[i] = make([]byte, 16)
	}
	var ws LaunchStats
	p := s.EnqueueWave(Wave{
		DPUs: 3, Tasklets: 1, Kernel: kernel, Stats: &ws,
		Scatter: ref, In: in,
		Gather: oref, Out: out,
	})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j, b := range out[i] {
			if b != ^in[i][j] {
				t.Fatalf("DPU %d byte %d: got %#x want %#x", i, j, b, ^in[i][j])
			}
		}
	}
	// Discrete replay on the same system: identical stats.
	full := [][]byte{in[0], in[1], in[2], make([]byte, 16)}
	if err := s.PushXferRef(ref, 0, full); err != nil {
		t.Fatal(err)
	}
	direct, err := s.LaunchOn(3, 1, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Cycles != direct.Cycles || ws.Seconds != direct.Seconds {
		t.Errorf("wave stats (%d cycles) != discrete stats (%d cycles)", ws.Cycles, direct.Cycles)
	}
	if len(ws.PerDPU) != 3 {
		t.Errorf("wave PerDPU has %d entries, want 3", len(ws.PerDPU))
	}
}

// TestAsyncErrorPropagation: a per-DPU kernel fault mid-queue is a
// partial failure — it surfaces as a *FaultReport at the command's own
// Wait (consumed there, so a later Sync is clean), and commands behind
// it still execute best-effort. Left unclaimed, the same report
// surfaces at Sync instead, exactly once.
func TestAsyncErrorPropagation(t *testing.T) {
	s, ref := queueSystem(t, 4)
	bad := s.DPU(1)
	okKernel := func(tk *dpu.Tasklet) error { return nil }
	faulty := func(tk *dpu.Tasklet) error {
		if tk.DPU() == bad {
			return fmt.Errorf("injected failure")
		}
		return nil
	}
	data := make([]byte, 32)
	pre := s.EnqueueCopyTo(ref, 0, data)
	launch := s.EnqueueLaunch(4, 1, faulty, nil)
	post := s.EnqueueCopyTo(ref, 0, data)

	if err := pre.Wait(); err != nil {
		t.Errorf("command before the fault failed: %v", err)
	}
	err := launch.Wait()
	if err == nil || !strings.Contains(err.Error(), "DPU 1") || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("faulting launch did not surface its error at Wait: %v", err)
	}
	if rep, ok := AsFaultReport(err); !ok {
		t.Errorf("launch error is not a FaultReport: %v", err)
	} else if len(rep.Faults) != 1 || rep.Faults[0].DPU != 1 || rep.Attempted != 4 {
		t.Errorf("unexpected report contents: %+v", rep)
	}
	// Partial failures don't poison the queue: the command behind the
	// fault executed normally.
	if err := post.Wait(); err != nil {
		t.Errorf("command behind the partial fault was skipped: %v", err)
	}
	// Wait consumed the report, so Sync is clean.
	if err := s.Sync(); err != nil {
		t.Errorf("Sync reports an already-claimed fault: %v", err)
	}
	// An unclaimed report surfaces at Sync exactly once.
	s.EnqueueLaunch(4, 1, faulty, nil)
	if err := s.Sync(); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Sync did not report the unclaimed fault: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("second Sync still reports an error: %v", err)
	}
	// Synchronous launch after the fault.
	if _, err := s.LaunchOn(4, 1, okKernel); err != nil {
		t.Errorf("synchronous launch after async fault: %v", err)
	}
	// And the queue accepts fresh work.
	if err := s.EnqueueLaunch(4, 1, okKernel, nil).Wait(); err != nil {
		t.Errorf("async launch after fault: %v", err)
	}
}

// TestWaveFaultSurfacesDPU: a wave whose kernel traps on one DPU
// reports that DPU in a *FaultReport at Wait, while the other DPUs
// complete their full scatter→launch→gather; the claimed report does
// not linger into Sync.
func TestWaveFaultSurfacesDPU(t *testing.T) {
	s, ref := queueSystem(t, 3)
	bad := s.DPU(2)
	in := make([][]byte, 3)
	out := make([][]byte, 3)
	for i := range in {
		in[i] = bytes.Repeat([]byte{byte(i + 1)}, 8)
		out[i] = make([]byte, 8)
	}
	p := s.EnqueueWave(Wave{
		DPUs: 3, Tasklets: 1,
		Kernel: func(tk *dpu.Tasklet) error {
			if tk.DPU() == bad {
				tk.Load8(-1) // memory trap
			}
			return nil
		},
		Scatter: ref, In: in, Gather: ref, Out: out,
	})
	err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "DPU 2") || !strings.Contains(err.Error(), "memory fault") {
		t.Errorf("wave trap not attributed: %v", err)
	}
	rep, ok := AsFaultReport(err)
	if !ok || len(rep.Faults) != 1 || rep.Faults[0].DPU != 2 {
		t.Errorf("wave fault report: %v", err)
	}
	// The surviving DPUs finished their round trip.
	for i := 0; i < 2; i++ {
		if !bytes.Equal(out[i], in[i]) {
			t.Errorf("surviving DPU %d did not complete its wave", i)
		}
	}
	// Wait claimed the report; the queue is clean and still working.
	if err := s.Sync(); err != nil {
		t.Errorf("Sync reports an already-claimed wave fault: %v", err)
	}
}

// TestRunWaveMatchesEnqueueWave: RunWave is the queued wave run on the
// caller — same bytes moved, same launch statistics, same transfer and
// DPU clocks, same fault report — with and without a trapping DPU, on a
// one-rank and a multi-rank system.
func TestRunWaveMatchesEnqueueWave(t *testing.T) {
	type outcome struct {
		out     [][]byte
		cycles  uint64
		seconds float64
		xfer    XferStats
		dpuTime string
		err     string
	}
	run := func(inline, trap bool, topo Topology) outcome {
		cfg := DefaultConfig(dpu.O0)
		cfg.Topology = topo
		s, err := NewSystem(6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.AllocMRAM("qbuf", 64); err != nil {
			t.Fatal(err)
		}
		ref, err := s.Resolve("qbuf")
		if err != nil {
			t.Fatal(err)
		}
		bad := s.DPU(3)
		in := make([][]byte, 5)
		out := make([][]byte, 5)
		for i := range in {
			in[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
			out[i] = make([]byte, 16)
		}
		var ls LaunchStats
		w := Wave{
			DPUs: 5, Tasklets: 2, Stats: &ls,
			Kernel: func(tk *dpu.Tasklet) error {
				if trap && tk.DPU() == bad {
					tk.Load8(-1) // memory trap
				}
				tk.ChargeBulk(dpu.OpAddInt, 16)
				return nil
			},
			Scatter: ref, In: in, Gather: ref, Out: out,
		}
		// Twice, so the second wave runs on reused scratch.
		for i := 0; i < 2; i++ {
			if inline {
				err = s.RunWave(w)
			} else {
				err = s.EnqueueWave(w).Wait()
			}
		}
		o := outcome{out: out, cycles: ls.Cycles, seconds: ls.Seconds,
			xfer: s.TransferStats(), dpuTime: s.DPUTime().String()}
		if err != nil {
			if _, ok := AsFaultReport(err); !ok {
				t.Fatalf("wave failed totally: %v", err)
			}
			o.err = err.Error()
		}
		return o
	}
	for _, topo := range []Topology{{}, {DPUsPerRank: 2}} {
		for _, trap := range []bool{false, true} {
			queued, inline := run(false, trap, topo), run(true, trap, topo)
			if fmt.Sprint(queued) != fmt.Sprint(inline) {
				t.Errorf("topology %+v trap=%v:\n queued %+v\n inline %+v", topo, trap, queued, inline)
			}
			if trap != (queued.err != "") || queued.cycles == 0 {
				t.Errorf("topology %+v trap=%v: err %q, %d cycles", topo, trap, queued.err, queued.cycles)
			}
		}
	}
}

// TestDoubleCloseWithQueuedWork: Close must drain a non-empty queue,
// resolve the stranded handles with ErrClosed, and stay idempotent.
func TestDoubleCloseWithQueuedWork(t *testing.T) {
	s, err := NewSystem(2, DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AllocMRAM("qbuf", 64); err != nil {
		t.Fatal(err)
	}
	ref, err := s.Resolve("qbuf")
	if err != nil {
		t.Fatal(err)
	}
	// Queue a burst of slow-ish launches so Close observes a non-empty
	// queue, then close twice from two goroutines.
	var last Pending
	for i := 0; i < 16; i++ {
		last = s.EnqueueLaunch(2, 1, func(tk *dpu.Tasklet) error {
			tk.ChargeBulk(dpu.OpAddInt, 1000)
			return nil
		}, nil)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	// Whatever was still queued at close resolved (possibly with
	// ErrClosed); the handle must not hang either way.
	_ = last.Wait()
	// Commands enqueued after close fail cleanly instead of hanging.
	if err := s.EnqueueCopyTo(ref, 0, make([]byte, 8)).Wait(); err == nil {
		t.Error("enqueue after Close succeeded")
	}
	s.Close() // third close: still a no-op
}

// TestPendingZeroValue: the zero Pending is resolved and error-free, so
// runner slots can embed one before their first wave.
func TestPendingZeroValue(t *testing.T) {
	var p Pending
	if !p.Done() {
		t.Error("zero Pending not done")
	}
	if err := p.Wait(); err != nil {
		t.Errorf("zero Pending returned %v", err)
	}
}

// TestWaveValidation: malformed waves fail at execution with a clear
// error rather than panicking in the executor.
func TestWaveValidation(t *testing.T) {
	s, ref := queueSystem(t, 2)
	nop := func(tk *dpu.Tasklet) error { return nil }
	cases := []Wave{
		{DPUs: 0, Tasklets: 1, Kernel: nop},
		{DPUs: 3, Tasklets: 1, Kernel: nop},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Scatter: ref, In: [][]byte{make([]byte, 8)}},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Scatter: ref, In: [][]byte{make([]byte, 8), make([]byte, 16)}},
		{DPUs: 2, Tasklets: 1, Kernel: nop, Gather: ref, Out: [][]byte{make([]byte, 512), make([]byte, 512)}},
	}
	for i, w := range cases {
		if err := s.EnqueueWave(w).Wait(); err == nil {
			t.Errorf("malformed wave %d accepted", i)
		}
		if err := s.Sync(); err == nil {
			t.Errorf("Sync after malformed wave %d reported no error", i)
		}
	}
}
