package dpu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pimdnn/internal/trace"
)

// MinStackBytes is the smallest per-tasklet stack the simulator accepts
// when launching. With an empty WRAM data segment and 11 tasklets the
// per-tasklet stack is 64KB/11 ≈ 5.8KB, the figure the thesis cites when
// discussing why YOLOv3's buffers cannot live in WRAM (§4.3.4).
const MinStackBytes = 256

// SymbolKind distinguishes where a program symbol lives.
type SymbolKind int

// Symbol locations.
const (
	SymbolMRAM SymbolKind = iota + 1
	// SymbolWRAM marks a host-visible WRAM variable (the "__host"
	// attribute in the UPMEM SDK, §3.2).
	SymbolWRAM
)

// Symbol is a named, host-addressable buffer in DPU memory, the unit the
// host runtime's transfer functions target (dpu_copy_to's symbol_name
// parameter, Eq 3.1-3.3).
type Symbol struct {
	Name   string
	Kind   SymbolKind
	Offset int64
	Size   int64
}

// Stats reports the outcome of one kernel launch.
type Stats struct {
	// Tasklets is the number of tasklets launched.
	Tasklets int
	// Cycles is the modeled DPU completion time in cycles.
	Cycles uint64
	// IssueSlots is the total number of pipeline issue slots consumed
	// by all tasklets.
	IssueSlots uint64
	// DMACycles is the total number of cycles spent in MRAM<->WRAM DMA
	// transfers across all tasklets.
	DMACycles uint64
	// Time is Cycles converted through the DPU clock.
	Time time.Duration
	// Seconds is Time in seconds as a float, convenient for the
	// benchmark harness.
	Seconds float64
	// EnergyJ is the launch's DPU energy at the Table 2.1 rating
	// (120 mW per DPU), the quantity behind Table 5.4's frames/s-W.
	EnergyJ float64
	// OpCounts is the instruction mix: executed operations per class,
	// summed over tasklets. Analyses like the Advisor use it to see
	// what a kernel is made of without a subroutine-level profile.
	OpCounts OpMix
	// PerTasklet breaks the work down per tasklet, exposing load
	// imbalance (the cause of eBNN's Fig 4.7a dip at 11 tasklets).
	// The slice aliases the DPU's reusable launch scratch: it is valid
	// until that DPU's next Launch, so callers that retain it across
	// launches must copy.
	PerTasklet []TaskletBreakdown
}

// OpMix is the executed-operation histogram of a launch, indexed by Op.
// A fixed array (rather than a map) so building it per launch costs no
// allocation on the simulator's hot path.
type OpMix [opKinds]uint64

// TaskletBreakdown is one tasklet's share of a launch.
type TaskletBreakdown struct {
	IssueSlots uint64
	DMACycles  uint64
}

// PipelineCycles is the DPU pipeline law over a launch's per-tasklet
// tallies: cycles = max(Σ slots, max_t(slots_t·PipelineDepth + dma_t),
// Σ dma) — total issue slots, the critical tasklet's pipelined path, and
// the serialized DMA port. Launch applies it to what the tasklets
// charged, the analytic model (internal/model) to what a kernel's cost
// function says they will charge.
func PipelineCycles(per []TaskletBreakdown) uint64 {
	var slots, dma, crit uint64
	for _, t := range per {
		slots += t.IssueSlots
		dma += t.DMACycles
		crit = max(crit, t.IssueSlots*PipelineDepth+t.DMACycles)
	}
	return max(slots, crit, dma)
}

// Imbalance returns max/mean of per-tasklet work (slots + DMA); 1.0 is
// perfectly balanced. Zero-work launches report 1.0.
func (s Stats) Imbalance() float64 {
	if len(s.PerTasklet) == 0 {
		return 1
	}
	var sum, max uint64
	for _, t := range s.PerTasklet {
		w := t.IssueSlots + t.DMACycles
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.PerTasklet))
	return float64(max) / mean
}

// KernelFunc is a DPU program: it runs once per tasklet.
type KernelFunc func(t *Tasklet) error

// DPU is one simulated DRAM Processing Unit.
type DPU struct {
	cfg Config

	mu   sync.Mutex
	wram []byte
	iram []byte
	// mramPages is the lazily-allocated MRAM, indexed by page number
	// (nil entry = untouched page, reads as zero; see mram.go for pages
	// shared between DPUs). A dense slice rather than a map: page lookup
	// is on the hot path of every MRAM access.
	mramPages []*mramPage
	symbols   map[string]Symbol
	// wramUsed is the WRAM data-segment size. Written under mu (symbol
	// definition); read via atomic load so WRAMFree and StackPerTasklet
	// take no lock.
	wramUsed atomic.Int64
	mramUsed int64

	prof *trace.Profile

	// met, when non-nil, holds the DPU's telemetry instruments (see
	// metrics.go). Set before concurrent use; read without mu — the
	// instruments are atomic and observation-only.
	met *Metrics

	// inj, when non-nil, injects deterministic faults into host-side
	// transfers and launches (see fault.go). Guarded by mu like the
	// counters below.
	inj *FaultInjector

	totalCycles uint64
	launches    int

	// rowScratch stages page-boundary-crossing rows (and the zero row of
	// untouched pages) for the row walks (rowRuns). Guarded by mu.
	rowScratch []byte

	// scratch holds the per-launch tasklet state, reused so Launch does
	// not heap-allocate tasklet structs on every call. Guarded by mu,
	// which a launch holds throughout.
	scratch launchScratch
}

// launchScratch is the reusable tasklet storage of one DPU. breakdown
// backs Stats.PerTasklet (see its aliasing note).
type launchScratch struct {
	launch    *LaunchCost // set by Tasklet.ChargeLaunch: the rest of the launch is not run
	tasklets  [MaxTasklets]Tasklet
	breakdown [MaxTasklets]TaskletBreakdown
}

// New creates a DPU with the given configuration.
func New(cfg Config) (*DPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &DPU{
		cfg:       cfg,
		wram:      make([]byte, cfg.WRAMSize),
		mramPages: make([]*mramPage, (cfg.MRAMSize+MRAMPageSize-1)/MRAMPageSize),
		symbols:   make(map[string]Symbol),
		prof:      trace.NewProfile(),
	}
	for i := range d.scratch.tasklets {
		d.scratch.tasklets[i].dpu, d.scratch.tasklets[i].id = d, i
	}
	return d, nil
}

// MustNew is New for static configurations known to be valid; it panics
// on error and exists for tests and examples.
func MustNew(cfg Config) *DPU {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Profile returns the DPU's subroutine profile.
func (d *DPU) Profile() *trace.Profile { return d.prof }

// SetProfile replaces the DPU's profile, letting several DPUs share one
// aggregate profile.
func (d *DPU) SetProfile(p *trace.Profile) { d.prof = p }

// InjectFaults arms (or, with nil, disarms) the DPU's fault injector and
// returns the one it replaces, with its accumulated state: arming that
// one again resumes its draws where they stopped.
func (d *DPU) InjectFaults(in *FaultInjector) *FaultInjector {
	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.inj
	d.inj = in
	return prev
}

// fault makes one draw of the fault injector, if armed — a transfer's or
// a launch's — and counts a fault that fires in the DPU's telemetry.
// Callers hold d.mu. Kernel-internal memory traffic is not gated.
func (d *DPU) fault(draw func(*FaultInjector) error) error {
	if d.inj == nil {
		return nil
	}
	err := draw(d.inj)
	if err != nil && d.met != nil {
		d.met.Faults.Inc()
	}
	return err
}

// Dead reports whether an injected fault has permanently killed the
// DPU. A DPU without an armed injector is never dead.
func (d *DPU) Dead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inj != nil && d.inj.Dead()
}

// TotalCycles returns the cycles accumulated over every launch since
// creation (a multi-launch application's total DPU busy time).
func (d *DPU) TotalCycles() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalCycles
}

// ResetClock zeroes the accumulated cycle counter.
func (d *DPU) ResetClock() {
	d.mu.Lock()
	d.totalCycles = 0
	d.launches = 0
	d.mu.Unlock()
}

// Layout is a kernel's DPU memory: its symbols in allocation order (a
// row's Offset is ignored; Alloc assigns it). The internal/model layout
// functions state each kernel's.
type Layout []Symbol

// WRAM returns the layout's WRAM data segment: its WRAM rows, each
// rounded up to the 8-byte granularity as Alloc rounds it.
func (l Layout) WRAM() int64 {
	var n int64
	for _, s := range l {
		if s.Kind == SymbolWRAM {
			n += roundUp8(s.Size)
		}
	}
	return n
}

// Fits reports whether a WRAM data segment of data bytes leaves each of
// n tasklets MinStackBytes of stack: the rule a launch enforces, and
// the one a kernel's layout is sized by.
func (c Config) Fits(data int64, n int) bool {
	return data+int64(n)*MinStackBytes <= int64(c.WRAMSize)
}

// Alloc defines symbol s (its Name, Kind and Size) and returns it with
// its Offset. Sizes are rounded up to the 8-byte DMA granularity,
// mirroring the padding requirement of §3.2. WRAM left unreserved is
// divided among tasklet stacks at launch. An MRAM symbol of a page or
// more starts on a page boundary and the rest of its last page stays
// unused, so that the pages a broadcast to it shares (mram.go) hold no
// other symbol's bytes; when MRAM has no room for that padding it packs
// like a small one.
func (d *DPU) Alloc(s Symbol) (Symbol, error) {
	if s.Size <= 0 {
		return Symbol{}, fmt.Errorf("dpu: Alloc(%q): non-positive size %d", s.Name, s.Size)
	}
	s.Size = roundUp8(s.Size)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.symbols[s.Name]; ok {
		return Symbol{}, fmt.Errorf("dpu: symbol %q already defined", s.Name)
	}
	if s.Kind == SymbolWRAM {
		s.Offset = d.wramUsed.Load()
		if s.Offset+s.Size > int64(d.cfg.WRAMSize) {
			return Symbol{}, fmt.Errorf("dpu: WRAM exhausted: %d used + %d requested > %d",
				s.Offset, s.Size, d.cfg.WRAMSize)
		}
		d.wramUsed.Store(s.Offset + s.Size)
	} else {
		off, end := d.mramUsed, d.mramUsed+s.Size
		if s.Size >= MRAMPageSize {
			if o, e := roundUpPage(off), roundUpPage(off)+roundUpPage(s.Size); e <= d.cfg.MRAMSize {
				off, end = o, e
			}
		}
		if end > d.cfg.MRAMSize {
			return Symbol{}, fmt.Errorf("dpu: MRAM exhausted: %d used + %d requested > %d",
				d.mramUsed, s.Size, d.cfg.MRAMSize)
		}
		s.Offset, d.mramUsed = off, end
	}
	d.symbols[s.Name] = s
	return s, nil
}

// AllocMark is a DPU's allocator state: where its next WRAM and MRAM
// symbols start.
type AllocMark struct{ wram, mram int64 }

// Mark returns the allocator's state, for Rollback.
func (d *DPU) Mark() AllocMark {
	d.mu.Lock()
	defer d.mu.Unlock()
	return AllocMark{d.wramUsed.Load(), d.mramUsed}
}

// Rollback undefines every symbol allocated since m was marked and
// returns the allocator to m. Both allocators only grow, so those are
// the symbols at or past m's offset in their memory.
func (d *DPU) Rollback(m AllocMark) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, s := range d.symbols {
		if s.Kind == SymbolWRAM && s.Offset >= m.wram || s.Kind != SymbolWRAM && s.Offset >= m.mram {
			delete(d.symbols, name)
		}
	}
	d.wramUsed.Store(m.wram)
	d.mramUsed = m.mram
}

// Symbol looks up a defined symbol by name.
func (d *DPU) Symbol(name string) (Symbol, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.symbols[name]
	return s, ok
}

// WRAMFree returns the WRAM bytes no symbol reserves.
func (d *DPU) WRAMFree() int64 {
	return int64(d.cfg.WRAMSize) - d.wramUsed.Load()
}

// StackPerTasklet returns the per-tasklet stack size available when
// launching n tasklets, (WRAM - data segment)/n — the quantity behind the
// thesis's 5.8 KB figure (§4.3.4). A launch needs MinStackBytes of it
// (Config.Fits).
func (d *DPU) StackPerTasklet(n int) int64 {
	if n <= 0 {
		return 0
	}
	return d.WRAMFree() / int64(n)
}

// Launch is a request that only launches (Do) the kernel on n tasklets,
// returning its statistics. Tasklets run in ID order; cycle accounting
// models their concurrent execution on the pipeline.
func (d *DPU) Launch(n int, kernel KernelFunc) (Stats, error) {
	var st Stats
	_, err := d.Do(&Request{Tasklets: n, Kernel: kernel, Stats: &st})
	return st, err
}

// Request is one host request to a DPU: a scatter, a launch of Tasklets
// tasklets running Kernel, its statistics into *Stats, and a gather, in
// that order. A zero Kind or a nil Stats leaves its part out.
type Request struct {
	Scatter  Xfer
	Tasklets int
	Kernel   KernelFunc
	Stats    *Stats
	Gather   Xfer
}

// Xfer is one host transfer: Buf's bytes to or from Kind's memory at
// Off, or, with Visit set on MRAM, Rows rows of RowBytes bytes back to
// back at Off, walked in place. A gather's Visit gets the rows as
// Tasklet.MRAMRowRuns passes them; a scatter's fills them, row first+r
// at block[r*blockStride] (a row across a page boundary is filled in a
// small buffer, then written), and must write every byte. Visit must
// not retain block nor call a DPU method (the lock is held). An MRAM
// transfer off the 8-byte alignment or size granularity (§3.2) fails.
type Xfer struct {
	Kind           SymbolKind
	Off            int64
	Buf            []byte
	Rows, RowBytes int
	Visit          func(first, count int, block []byte, blockStride int)
}

// The parts of a Request, as bits of how far Do got.
const (
	Scattered uint8 = 1 << iota
	Launched
	Gathered
)

// Do runs r on the DPU under one hold of its lock, so no other host
// request reaches the DPU between its parts, and stops at the first
// failure. done has the bit of every part r got past, a part it leaves
// out included. Each part consults the fault injector before it touches
// memory; a failed launch zeroes *r.Stats.
func (d *DPU) Do(r *Request) (done uint8, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err = d.xfer(&r.Scatter, true); err != nil {
		return 0, err
	}
	if r.Stats != nil {
		if err = d.launch(r.Tasklets, r.Kernel, r.Stats); err != nil {
			return Scattered, err
		}
	}
	if err = d.xfer(&r.Gather, false); err != nil {
		return Scattered | Launched, err
	}
	return Scattered | Launched | Gathered, nil
}

// xfer runs one transfer of a request, into the DPU when in, and meters
// it in the DPU's telemetry (no DPU cycles charged). Callers hold d.mu.
func (d *DPU) xfer(x *Xfer, in bool) error {
	if x.Kind == 0 {
		return nil
	}
	if err := d.fault((*FaultInjector).transfer); err != nil {
		return err
	}
	n, err := len(x.Buf), error(nil)
	switch {
	case x.Kind == SymbolWRAM:
		if x.Off < 0 || x.Off+int64(n) > int64(d.cfg.WRAMSize) {
			return fmt.Errorf("dpu: WRAM transfer [%d, %d) outside [0, %d)", x.Off, x.Off+int64(n), d.cfg.WRAMSize)
		}
		dst, src := d.wram[x.Off:], x.Buf
		if !in {
			dst, src = src, dst
		}
		copy(dst, src)
	case x.Visit != nil && in:
		n, err = x.Rows*x.RowBytes, d.writeRows(x)
	case x.Visit != nil:
		n, err = x.Rows*x.RowBytes, d.rowRuns(x.Off, int64(x.RowBytes), x.RowBytes, x.Rows, false, x.Visit)
	default:
		if err = d.checkDMAArgs(x.Off, n); err == nil && in {
			d.mramWrite(x.Off, x.Buf)
		} else if err == nil {
			d.mramRead(x.Off, x.Buf)
		}
	}
	if m := d.met; err == nil && m != nil {
		b, acc := m.MRAMBytes, m.MRAMAccesses
		if x.Kind == SymbolWRAM {
			b, acc = m.WRAMBytes, m.WRAMAccesses
		}
		b.Add(uint64(n))
		acc.Inc()
	}
	return err
}

// launch is a request's launch, its statistics into *out: overwritten on
// success, zeroed on the (cold) error paths. Callers hold d.mu, so the
// launch owns the DPU from its fault draw to its cycle tally; its kernel
// takes no lock. An injected fault aborts it before any tasklet retires
// and charges no cycles, as a genuine memory trap does.
func (d *DPU) launch(n int, kernel KernelFunc, out *Stats) error {
	if n < 1 || n > MaxTasklets {
		*out = Stats{}
		return fmt.Errorf("dpu: tasklet count %d outside 1..%d", n, MaxTasklets)
	}
	if kernel == nil {
		*out = Stats{}
		return fmt.Errorf("dpu: nil kernel")
	}
	if !d.cfg.Fits(d.wramUsed.Load(), n) {
		*out = Stats{}
		return fmt.Errorf("dpu: %d tasklets leave %d bytes of stack each (< %d): WRAM data segment too large",
			n, d.StackPerTasklet(n), MinStackBytes)
	}
	if err := d.fault((*FaultInjector).launch); err != nil {
		*out = Stats{}
		return err
	}

	// A tasklet's meters and the opCounts array (the bulk of the struct)
	// are kept zero between launches: cleared in the merge below on
	// success, and on the error path, for the tasklets that ran only —
	// a block kernel runs one of them, and the others stay cold.
	ran, err := d.runTasklets(n, kernel)
	tasklets := d.scratch.tasklets[:ran]
	if err != nil {
		for i := range tasklets {
			tasklets[i].reset()
		}
		*out = Stats{}
		return err
	}

	var mix OpMix
	var sumSlots, sumDMA, dmaBytes, dmaOps uint64
	breakdown := d.scratch.breakdown[:n]
	for i := range tasklets {
		t := &tasklets[i]
		// Only the op classes this tasklet charged, not all of opCounts.
		for _, op := range t.touched[:t.nTouched] {
			mix[op] += t.opCounts[op]
		}
		sumSlots += t.slots
		sumDMA += t.dma
		dmaBytes += t.dmaBytes
		dmaOps += t.dmaOps
		breakdown[i] = TaskletBreakdown{IssueSlots: t.slots, DMACycles: t.dma}
		t.reset()
	}
	clear(breakdown[ran:])
	// A ChargeLaunch adds block i to tasklet i, and their sum to the totals.
	if lc := d.scratch.launch; lc != nil {
		for i := range breakdown {
			breakdown[i].IssueSlots += lc.blocks[i].lv[d.cfg.Opt].slots
			breakdown[i].DMACycles += lc.blocks[i].dmaCyc
		}
		sumSlots += lc.sum.lv[d.cfg.Opt].slots
		sumDMA += lc.sum.dmaCyc
		dmaBytes += lc.sum.dmaBytes
		dmaOps += lc.sum.dmaOps
	}
	cycles := PipelineCycles(breakdown)
	d.totalCycles += cycles
	d.launches++

	if m := d.met; m != nil {
		m.Launches.Inc()
		m.Cycles.Add(cycles)
		m.TaskletsPerLaunch.Observe(uint64(n))
		m.WRAMAccesses.Add(mix[OpLoad] + mix[OpStore])
		// DMA crosses both memories: charge bytes to each side, the
		// operation count to MRAM (the WRAM side is in the load/store mix).
		m.MRAMBytes.Add(dmaBytes)
		m.MRAMAccesses.Add(dmaOps)
		m.WRAMBytes.Add(dmaBytes)
	}

	sec := float64(cycles) / d.cfg.FrequencyHz
	out.Tasklets = n
	out.Cycles = cycles
	out.IssueSlots = sumSlots
	out.DMACycles = sumDMA
	out.Time = time.Duration(sec * float64(time.Second))
	out.Seconds = sec
	out.EnergyJ = sec * DPUPowerW
	out.OpCounts = mix
	out.PerTasklet = breakdown
	return nil
}

// runTasklets executes the launch's tasklets in ID order, up to the
// one that charges the whole launch (Tasklet.ChargeLaunch), and returns
// how many ran (the one that failed included), converting memory traps
// (panics of type trapError raised by out-of-bounds or misaligned
// accesses) into errors, the way a hardware fault would abort the DPU
// program. One recover scope covers the whole launch: a trap aborts the
// remaining tasklets anyway.
func (d *DPU) runTasklets(n int, kernel KernelFunc) (ran int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(trapError); ok {
				err = fmt.Errorf("dpu: tasklet %d: memory fault: %s", ran-1, string(te))
				return
			}
			panic(r)
		}
	}()
	d.scratch.launch = nil
	for ran < n && d.scratch.launch == nil {
		t := &d.scratch.tasklets[ran]
		t.count = n
		ran++
		if e := kernel(t); e != nil {
			return ran, fmt.Errorf("dpu: tasklet %d: %w", ran-1, e)
		}
	}
	return ran, nil
}

func (d *DPU) checkDMAArgs(off int64, n int) error {
	if off%DMAAlignment != 0 {
		return fmt.Errorf("dpu: MRAM offset %d not %d-byte aligned", off, DMAAlignment)
	}
	if n%DMAAlignment != 0 {
		return fmt.Errorf("dpu: MRAM transfer size %d not divisible by %d (pad the buffer, §3.2)", n, DMAAlignment)
	}
	if off < 0 || off+int64(n) > d.cfg.MRAMSize {
		return fmt.Errorf("dpu: MRAM range [%d, %d) outside [0, %d)", off, off+int64(n), d.cfg.MRAMSize)
	}
	return nil
}

func roundUp8(n int64) int64 {
	return (n + 7) &^ 7
}

func roundUpPage(n int64) int64 {
	return (n + MRAMPageSize - 1) &^ (MRAMPageSize - 1)
}
