// Package host implements the host-side runtime that drives a set of
// simulated UPMEM DPUs.
//
// It mirrors the UPMEM SDK's host API surface as described in thesis §3.1
// and §3.2: DPU-set allocation, broadcast transfers (dpu_copy_to,
// Eq 3.1), per-DPU scatter/gather transfers (dpu_prepare_xfer +
// dpu_push_xfer, Eqs 3.2–3.3), symbol-addressed MRAM/WRAM buffers, the
// 8-byte alignment/padding rule, and synchronous parallel kernel launch.
// System-level time for a launch is the maximum over the participating
// DPUs, which is how the thesis computes multi-DPU completion time
// (§4.1.3: "run in parallel to finish their batch of images at the max
// time for one DPU").
//
// Simulated time (DPU cycles, host transfer time) is charged per API
// call and is independent of how the simulator schedules the work on
// the real machine: launches with enough predicted work and large
// transfers are executed by a persistent worker pool sized to
// GOMAXPROCS, the rest on the caller, and the cycle/transfer
// accounting is bit-identical to the serial loops it replaced.
package host

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/trace"
)

// Config parameterizes the simulated host<->PIM interconnect.
type Config struct {
	// DPU is the configuration applied to every allocated DPU.
	DPU dpu.Config
	// TransferBandwidth is the host<->MRAM streaming rate in bytes/s of
	// one rank channel (typical DDR4 DIMM-level rate). Ranks transfer
	// in parallel, so a multi-rank scatter's modeled time is the
	// busiest rank's serial share, not the whole payload at this rate
	// (see topology.go).
	TransferBandwidth float64
	// TransferLatency is the fixed per-transfer host overhead.
	TransferLatency time.Duration
	// Topology groups the DPUs into DIMM ranks; the zero value derives
	// ranks of dpu.DPUsPerRank from the DPU count.
	Topology Topology
}

// DefaultConfig returns a host configuration wrapping the Table 2.1 DPU
// defaults at the given optimization level.
func DefaultConfig(opt dpu.OptLevel) Config {
	return Config{
		DPU:               dpu.DefaultConfig(opt),
		TransferBandwidth: 1 << 30, // 1 GiB/s
		TransferLatency:   20 * time.Microsecond,
	}
}

// System is an allocated set of DPUs (the SDK's dpu_set_t).
type System struct {
	cfg  Config
	dpus []*dpu.DPU
	prof *trace.Profile
	pool *workerPool

	// perRank/ranks are the resolved Config.Topology (topology.go).
	perRank int
	ranks   int

	// symbols caches the uniform symbol table built by Alloc so
	// transfers resolve names with one map lookup per call instead of
	// one per DPU.
	symMu   sync.RWMutex
	symbols map[string]dpu.Symbol

	// met, when non-nil, holds the runtime's telemetry instruments
	// (metrics.go). Wired by EnableMetrics before concurrent use; every
	// hot path gates on one nil check.
	met *sysMetrics

	mu           sync.Mutex
	hostXferTime time.Duration
	dpuTime      time.Duration
	xferCount    uint64
	xferBytes    uint64

	// calls and waves are the two instances of the one best-effort
	// multi-DPU loop (wave.go): calls serves the synchronous transfers
	// and launches, waves serves RunWave, so a wave may run beside a
	// synchronous transfer on another symbol. Neither is safe for
	// concurrent use with itself (the DPUs' memory is shared state
	// between calls anyway).
	calls, waves phaseRunner

	// bcast is the MRAM broadcast's reusable page-sharing write. Same
	// sequencing as calls.
	bcast dpu.MRAMBroadcast
}

// XferStats summarizes host<->PIM traffic since the last reset.
type XferStats struct {
	// Transfers is the number of transfer operations (a broadcast or
	// scatter over N DPUs counts once per API call).
	Transfers uint64
	// Bytes is the total payload moved, summed over DPUs.
	Bytes uint64
	// Time is the simulated transfer time.
	Time time.Duration
}

// NewSystem allocates n DPUs. n may not exceed the full UPMEM system size
// (2,560 DPUs across 20 DIMMs, Table 2.1).
func NewSystem(n int, cfg Config) (*System, error) {
	if n < 1 || n > dpu.SystemDPUs {
		return nil, fmt.Errorf("host: DPU count %d outside 1..%d", n, dpu.SystemDPUs)
	}
	if cfg.TransferBandwidth <= 0 {
		return nil, fmt.Errorf("host: non-positive transfer bandwidth %v", cfg.TransferBandwidth)
	}
	perRank, ranks, err := resolveTopology(n, cfg.Topology)
	if err != nil {
		return nil, err
	}
	prof := trace.NewProfile()
	dpus := make([]*dpu.DPU, n)
	for i := range dpus {
		d, err := dpu.New(cfg.DPU)
		if err != nil {
			return nil, fmt.Errorf("host: allocating DPU %d: %w", i, err)
		}
		d.SetProfile(prof)
		dpus[i] = d
	}
	s := &System{
		cfg:     cfg,
		dpus:    dpus,
		prof:    prof,
		pool:    newWorkerPool(runtime.GOMAXPROCS(0)),
		perRank: perRank,
		ranks:   ranks,
		symbols: make(map[string]dpu.Symbol),
	}
	for _, r := range []*phaseRunner{&s.calls, &s.waves} {
		r.s, r.run = s, r.loop
	}
	// Dropped systems release their worker goroutines at GC time; Close
	// makes the release deterministic.
	runtime.SetFinalizer(s, (*System).Close)
	return s, nil
}

// Close stops the system's worker pool. The System must not be used for
// launches or transfers afterwards. Closing is optional — garbage
// collection of an unreachable System has the same effect — and
// idempotent.
func (s *System) Close() {
	runtime.SetFinalizer(s, nil)
	s.pool.close()
}

// NumDPUs returns the number of allocated DPUs.
func (s *System) NumDPUs() int { return len(s.dpus) }

// DPU returns the i-th DPU.
func (s *System) DPU(i int) *dpu.DPU { return s.dpus[i] }

// Profile returns the aggregate subroutine profile shared by all DPUs.
func (s *System) Profile() *trace.Profile { return s.prof }

// Config returns the host configuration.
func (s *System) Config() Config { return s.cfg }

// Alloc defines a layout's symbols on every DPU, in order, and returns
// each row's resolved ref. It is all or nothing: when a row fails on
// some DPU, every DPU is rolled back to where it stood, and no symbol of
// the layout is defined.
func (s *System) Alloc(l dpu.Layout) ([]SymbolRef, error) {
	marks := make([]dpu.AllocMark, len(s.dpus))
	for i, d := range s.dpus {
		marks[i] = d.Mark()
	}
	refs := make([]SymbolRef, len(l))
	for j, row := range l {
		for i, d := range s.dpus {
			sym, err := d.Alloc(row)
			if err != nil {
				for k, dk := range s.dpus {
					dk.Rollback(marks[k])
				}
				return nil, fmt.Errorf("host: DPU %d: %w", i, err)
			}
			if i == 0 {
				refs[j] = SymbolRef{name: sym.Name, kind: sym.Kind, off: sym.Offset, size: sym.Size}
			}
		}
	}
	s.symMu.Lock()
	for _, r := range refs {
		s.symbols[r.name] = dpu.Symbol{Name: r.name, Kind: r.kind, Offset: r.off, Size: r.size}
	}
	s.symMu.Unlock()
	return refs, nil
}

// AllocMRAM defines an MRAM symbol of the given size on every DPU.
func (s *System) AllocMRAM(name string, size int64) error {
	_, err := s.Alloc(dpu.Layout{{Name: name, Kind: dpu.SymbolMRAM, Size: size}})
	return err
}

// SymbolRef is a resolved symbol handle valid on every DPU of the
// System. Resolving once and passing the ref to the *Ref transfer
// variants skips the per-call symbol lookup on repeated transfers (the
// per-layer scatter/gather loops of the DNN runners).
type SymbolRef struct {
	name string
	kind dpu.SymbolKind
	off  int64
	size int64
}

// Name returns the symbol name the ref was resolved from.
func (r SymbolRef) Name() string { return r.name }

// Size returns the symbol's (padded) size in bytes.
func (r SymbolRef) Size() int64 { return r.size }

// Offset returns the symbol's offset in its memory.
func (r SymbolRef) Offset() int64 { return r.off }

func (r SymbolRef) valid() bool { return r.kind != 0 }

// Resolve looks up a symbol defined on every DPU and returns a reusable
// handle. Symbols created through System.Alloc are uniform
// by construction; symbols allocated directly on individual DPUs are
// honored only when every DPU agrees on their location.
func (s *System) Resolve(symbol string) (SymbolRef, error) {
	s.symMu.RLock()
	sym, ok := s.symbols[symbol]
	s.symMu.RUnlock()
	if !ok {
		sym0, found := s.dpus[0].Symbol(symbol)
		if !found {
			return SymbolRef{}, fmt.Errorf("host: unknown symbol %q", symbol)
		}
		for i, d := range s.dpus[1:] {
			if si, ok := d.Symbol(symbol); !ok || si != sym0 {
				return SymbolRef{}, fmt.Errorf("host: symbol %q not uniform across DPUs (differs on DPU %d)", symbol, i+1)
			}
		}
		sym = sym0
	}
	return SymbolRef{name: sym.Name, kind: sym.Kind, off: sym.Offset, size: sym.Size}, nil
}

// checkRef bounds-checks an access of n bytes at offset within the
// referenced symbol. The check runs once per transfer call; symbols are
// uniform across DPUs, so a per-DPU re-check would be redundant.
func checkRef(ref SymbolRef, offset int64, n int) error {
	if !ref.valid() {
		return fmt.Errorf("host: zero SymbolRef (use System.Resolve)")
	}
	// n is a buffer length and thus non-negative; checking offset against
	// the size first keeps a huge offset from wrapping offset+n negative
	// and slipping past the bound.
	if offset < 0 || offset > ref.size || int64(n) > ref.size-offset {
		return fmt.Errorf("host: access [%d, %d) outside symbol %q of size %d",
			offset, offset+int64(n), ref.name, ref.size)
	}
	return nil
}

// ParallelFor runs fn over [0, n) in contiguous, rank-aligned ranges on
// the system's worker pool and returns when every range has finished —
// the fan-out the sharded transfers and launches use, for host-side
// per-image work that sits between them (the host layers of a batch
// forward). Below parallelThreshold (32) ranges, and on a single
// worker, it is the plain call fn(0, n) on the caller's goroutine; from
// 32 it fans out. No timing chose 32, and unlike a launch (fansOut) it
// is told nothing of fn's work. fn must be safe for concurrent
// invocation on disjoint ranges. It may use the pool itself — a nested ParallelFor, one-DPU
// requests (CopyToDPURef, a one-DPU RunWave) from any range, wider
// transfers and waves from one range at a time (those share a runner's
// scratch).
func (s *System) ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < parallelThreshold {
		fn(0, n)
		return
	}
	s.pool.runAligned(n, s.perRank, fn)
}

// CopyToSymbolRef broadcasts the same data to the symbol on every DPU
// (dpu_copy_to, Eq 3.1). Data destined for MRAM must be 8-byte padded;
// use Pad8 for arbitrary payloads. It is best-effort: every DPU is
// attempted, and per-DPU failures come back as a *FaultReport. The
// simulated transfer is charged per DPU reached; the simulator stores an
// MRAM payload once for all of them where it can (dpu.MRAMBroadcast). A
// WRAM payload is a parameter block of at most a few hundred bytes, so
// it is written DPU by DPU on the caller: a pool dispatch would cost
// more than the copies.
func (s *System) CopyToSymbolRef(ref SymbolRef, offset int64, data []byte) error {
	if data == nil {
		data = []byte{} // an empty broadcast, not a missing one
	}
	_, err := s.calls.do("copy_to", Wave{DPUs: len(s.dpus), Scatter: ref, off: offset, bcast: data}, dpu.Scattered)
	return err
}

// CopyToDPURef writes data to the symbol on DPU dpuIdx alone: a one-DPU
// CopyToSymbolRef, reported and charged the same way.
func (s *System) CopyToDPURef(dpuIdx int, ref SymbolRef, offset int64, data []byte) error {
	if data == nil {
		data = []byte{} // an empty write, not a missing one
	}
	_, err := s.calls.do("copy_to_dpu", Wave{Start: dpuIdx, DPUs: 1, Scatter: ref, off: offset, bcast: data}, dpu.Scattered)
	return err
}

// PushXferRef scatters per-DPU buffers to the symbol: buffers[i] goes to
// DPU i (dpu_prepare_xfer + dpu_push_xfer, Eqs 3.2–3.3). All buffers
// must share one length, the transfer length of the push; pad shorter
// payloads with Pad8 and communicate true sizes separately, as §3.2
// prescribes.
func (s *System) PushXferRef(ref SymbolRef, offset int64, buffers [][]byte) error {
	_, err := s.calls.do("push_xfer", Wave{DPUs: len(s.dpus), Scatter: ref, In: buffers, off: offset}, dpu.Scattered)
	return err
}

// ScatterRows is a PushXferRef whose buffers are produced in place: on
// each of the first n DPUs, fill gets the page runs of rows rows of
// rowBytes bytes at the base of the MRAM symbol ref as
// a scatter's dpu.Xfer passes them, like a wave's in-place gather (Wave's
// Visit), and must write every byte of them; the other DPUs get zero
// rows, as dpu_push_xfer pads them. A DPU whose transfer fails keeps its
// MRAM and never sees fill. It is charged and reported like
// PushXferRef, and validated like an in-place gather.
func (s *System) ScatterRows(ref SymbolRef, rows, rowBytes, n int, fill func(i, first, count int, block []byte, blockStride int)) error {
	_, err := s.calls.do("scatter_rows", Wave{DPUs: len(s.dpus), Scatter: ref, Rows: rows, RowBytes: rowBytes, filled: n, fill: fill}, dpu.Scattered)
	return err
}

// GatherXferRefInto reads n bytes from the symbol on the first len(dst)
// DPUs into the caller's buffers, each of length n. Passing fewer
// buffers than DPUs gathers a partial wave — the counterpart of
// LaunchOn's first-n launch.
func (s *System) GatherXferRefInto(ref SymbolRef, offset int64, n int, dst [][]byte) error {
	if len(dst) > 0 && len(dst[0]) != n {
		return fmt.Errorf("host: gather buffer 0 has length %d, want %d", len(dst[0]), n)
	}
	_, err := s.calls.do("gather", Wave{DPUs: len(dst), Gather: ref, Out: dst, off: offset}, dpu.Gathered)
	return err
}

// LaunchStats aggregates one parallel launch across the system.
type LaunchStats struct {
	// PerDPU holds each DPU's launch statistics.
	PerDPU []dpu.Stats
	// Cycles is the system completion time in DPU cycles: the maximum
	// over DPUs, since they run in parallel.
	Cycles uint64
	// Seconds is Cycles through the DPU clock.
	Seconds float64
	// Time is Seconds as a duration.
	Time time.Duration
	// EnergyJ sums the participating DPUs' energy for the launch.
	EnergyJ float64
}

// LaunchOn runs the kernel on the first n DPUs only, which is how the
// thesis's dynamic DPU assignment uses "an optimum number of DPUs for
// processing each layer" (§4.2, Fig 4.6: one DPU per output row).
//
// It knows nothing of the kernel's work, so it fans the n simulated
// DPUs out to the persistent worker pool (one shard per CPU) only when
// n alone pays for it (fansOut); the modeled launch statistics do not
// depend on the scheduling.
//
// LaunchOn is best-effort: every DPU is attempted, and per-DPU failures
// come back as a *FaultReport alongside the stats of what ran. A failed
// DPU contributes a zero Stats entry to PerDPU; Cycles is the maximum
// over the DPUs that completed, and exactly that time is added to the
// system DPU clock (an all-failed launch charges nothing, matching the
// per-DPU clocks, which only advance on success).
func (s *System) LaunchOn(n, tasklets int, kernel dpu.KernelFunc) (LaunchStats, error) {
	// No Stats backing: PerDPU escapes to the caller, so it is fresh.
	return s.calls.do("launch", Wave{DPUs: n, Tasklets: tasklets, Kernel: kernel}, dpu.Launched)
}

// chargeTransferRanks advances the host clock for one multi-DPU
// transfer API call that moved perDPU bytes to each of nOK DPUs, of
// which busiest share a rank: the ranks stream concurrently on their
// own channels, so the modeled duration is the busiest rank's serial
// share (plus one per-call latency), while the byte counters record the
// full payload. With one rank busiest == nOK and the charge is the flat
// model's, bit for bit.
func (s *System) chargeTransferRanks(perDPU, nOK, busiest int) {
	d := s.cfg.TransferLatency +
		time.Duration(float64(perDPU*busiest)/s.cfg.TransferBandwidth*float64(time.Second))
	s.mu.Lock()
	s.hostXferTime += d
	s.xferCount++
	s.xferBytes += uint64(perDPU * nOK)
	s.mu.Unlock()
}

// TransferStats returns the accumulated host<->PIM traffic summary.
func (s *System) TransferStats() XferStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return XferStats{Transfers: s.xferCount, Bytes: s.xferBytes, Time: s.hostXferTime}
}

// HostTransferTime returns the accumulated simulated host<->PIM transfer
// time.
func (s *System) HostTransferTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostXferTime
}

// DPUTime returns the accumulated simulated DPU execution time across
// launches (system-parallel time, not per-DPU busy time).
func (s *System) DPUTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dpuTime
}

// ResetClocks zeroes the accumulated host and DPU clocks and the
// transfer counters.
func (s *System) ResetClocks() {
	s.mu.Lock()
	s.hostXferTime = 0
	s.dpuTime = 0
	s.xferCount = 0
	s.xferBytes = 0
	s.mu.Unlock()
	for _, d := range s.dpus {
		d.ResetClock()
	}
}

// Pad8 returns data padded with zeros to the next multiple of 8 bytes,
// together with the original length. It implements the §3.2 workaround:
// "padding to the sent/received memory buffers from the DPUs needs to be
// added [and] the size of the non-padded buffer must be sent from the
// host to the DPU."
//
// When len(data) is already a multiple of 8, Pad8 returns data itself —
// the padded slice ALIASES the input, unlike the unaligned case, which
// copies. Callers that mutate the padded buffer (or hand it to a wave in
// flight while still writing the original) must copy first.
func Pad8(data []byte) (padded []byte, origLen int) {
	origLen = len(data)
	rem := origLen % dpu.DMAAlignment
	if rem == 0 {
		return data, origLen
	}
	padded = make([]byte, origLen+dpu.DMAAlignment-rem)
	copy(padded, data)
	return padded, origLen
}
