// Package plan is the cost-model-guided auto-mapper: given a layer's
// GEMM/conv shape and the live system topology, it enumerates candidate
// mappings (rows-per-DPU vs image-per-DPU, tasklet count up to the
// WRAM-feasible limit, DPU count up to the full array),
// scores each with the kernel-granularity analytic latency model
// (internal/model), and returns a Mapping the gemm/ebnn runners execute
// directly. The planner only picks among existing mapping axes — every
// candidate produces bit-identical outputs — so choosing is purely a
// latency decision, and the analytic score is held against simulated
// latency by the calibration loop (cmd/upmem-profile -calibrate).
package plan

import (
	"sync/atomic"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/model"
)

// Mode names the shard mapping a plan targets.
type Mode uint8

const (
	// RowsPerDPU is the Fig 4.6 mapping: one output row per DPU.
	RowsPerDPU Mode = iota
	// ImagePerDPU is the §6.1 batch mapping: one whole product per DPU.
	ImagePerDPU
)

func (m Mode) String() string {
	if m == ImagePerDPU {
		return "image-per-DPU"
	}
	return "rows-per-DPU"
}

// The hand-tuned constants the planner replaces, kept as the one
// `Fixed` source of truth for every code path that runs without a
// planner (deploys, estimates, serving defaults):
const (
	// FixedTasklets is the thesis's measured row-mode configuration
	// (§4.3.1): one tasklet per pipeline stage.
	FixedTasklets = dpu.PipelineDepth // 11
	// FixedTileCols matches gemm.DefaultTileCols (asserted equal by the
	// gemm tests; plan cannot import gemm, which imports this package).
	FixedTileCols = 256
	// FixedBatchTasklets is the historical image-per-DPU pin used by the
	// batch paths and the full-array benchmarks.
	FixedBatchTasklets = 8
	// FixedEBNNTasklets is one tasklet per image of an ebnn.BatchSize
	// batch (§4.1.3).
	FixedEBNNTasklets = 16
)

// Fixed returns the hand-tuned fallback mapping for a mode — what every
// network ran before the planner existed. Shape-independent fields only;
// DPUs/Waves/Predicted* are zero (unknown without a shape).
func Fixed(mode Mode) Mapping {
	m := Mapping{Mode: mode, Tasklets: FixedTasklets, TileCols: FixedTileCols}
	if mode == ImagePerDPU {
		m.Tasklets = FixedBatchTasklets
	}
	return m
}

// Mapping is one executable mapping choice for a layer shape.
type Mapping struct {
	Mode Mode
	// Tasklets is the per-DPU tasklet count to launch with.
	Tasklets int
	// TileCols is the tiled kernels' WRAM tile width.
	TileCols int
	// Naive selects the thesis-faithful MRAM-resident-ctmp kernel.
	Naive bool
	// DPUs is the wave width: min(shards, system size). Per-wave cycles
	// are DPU-count independent, so fewer DPUs is never faster and the
	// planner always takes the widest wave the shape can fill.
	DPUs int
	// Waves is the number of sequential launches at that width.
	Waves int
	// PredictedWaveCycles is the analytic per-DPU cycle count of one
	// full wave; PredictedSeconds is the whole dispatch through the DPU
	// clock (all waves).
	PredictedWaveCycles uint64
	PredictedSeconds    float64
}

// GEMMOptions carries the per-runner configuration the planner must
// honor (the axes it does NOT choose: kernel family and tile width are
// allocation-time runner properties) plus search bounds.
type GEMMOptions struct {
	// TileCols is the runner's tile width; 0 means FixedTileCols.
	TileCols int
	// Naive selects the thesis-faithful kernel family.
	Naive bool
	// MaxK is the runner's allocation bound, which sizes the WRAM
	// working set; 0 means the planned shape's own K.
	MaxK int
	// MaxTasklets caps the sweep; 0 derives it from the kernel's layout:
	// the largest count at which it fits WRAM with every tasklet's stack
	// (GEMMTaskletCap at MaxK, TileCols and Batch).
	MaxTasklets int
	// Batch plans the image-per-DPU mapping's WRAM footprint (the
	// per-tasklet A-row cache) into the tasklet cap.
	Batch bool
}

// Planner scores candidate mappings against one system topology. It is
// safe for concurrent use (the per-shape cache is copy-on-write); a
// cache hit allocates nothing.
type Planner struct {
	dpus  int
	cfg   dpu.Config
	cache atomic.Pointer[[]cacheEntry]
}

// cacheEntry memoizes one shape's search result: the chosen tasklet
// count and per-wave cycles. Shard-count-dependent fields (DPUs, waves,
// total seconds) are recomputed per call — they don't affect the argmin.
type cacheEntry struct {
	mode     Mode
	m, n, k  int // m is 0 for RowsPerDPU (row cost is m-independent)
	opts     GEMMOptions
	tasklets int
	cycles   uint64
}

// New snapshots the system's topology (DPU count and per-DPU config).
func New(sys *host.System) *Planner {
	return NewFromConfig(sys.NumDPUs(), sys.Config().DPU)
}

// NewFromConfig builds a planner for a hypothetical topology — sweeps
// and estimates that never touch a live system.
func NewFromConfig(dpus int, cfg dpu.Config) *Planner {
	if dpus < 1 {
		dpus = 1
	}
	return &Planner{dpus: dpus, cfg: cfg}
}

// Frequency returns the DPU clock the planner converts cycles with.
func (p *Planner) Frequency() float64 { return p.cfg.FrequencyHz }

// GEMMTaskletCap returns the largest tasklet count at which the gemm
// kernels' layout (model.GEMMLayout at maxK and tileCols, in batch mode
// with an A-row cache slot per tasklet) leaves every tasklet its stack
// in the configured WRAM (dpu.Config.Fits, the rule a launch enforces).
// Returns at least 1 (an infeasible-even-at-1 config fails at runner
// allocation, not here).
func (p *Planner) GEMMTaskletCap(maxK, tileCols int, batch bool) int {
	if tileCols <= 0 {
		tileCols = FixedTileCols
	}
	t := dpu.MaxTasklets
	for ; t > 1; t-- {
		maxM, slots := 0, 0
		if batch {
			maxM, slots = 1, t
		}
		if p.cfg.Fits(model.GEMMLayout(maxK, 0, tileCols, t, maxM, slots).WRAM(), t) {
			break
		}
	}
	return t
}

func (o *GEMMOptions) normalize(k int, batch bool) {
	if o.TileCols <= 0 {
		o.TileCols = FixedTileCols
	}
	if o.MaxK <= 0 {
		o.MaxK = k
	}
	o.Batch = o.Batch || batch
	if o.MaxTasklets > dpu.MaxTasklets {
		o.MaxTasklets = dpu.MaxTasklets
	}
}

// GEMM plans the rows-per-DPU mapping for an m×n×k GEMM: it sweeps the
// tasklet axis, scoring each candidate with the analytic kernel model,
// and fills the wave geometry for m shards. Same shape + same topology
// always returns the same Mapping (the search is deterministic and
// memoized).
func (p *Planner) GEMM(m, n, k int, o GEMMOptions) Mapping {
	o.normalize(k, false)
	kc := model.KernelConfig{Opt: p.cfg.Opt, TileCols: o.TileCols, Naive: o.Naive}
	tasklets, cycles := p.searched(RowsPerDPU, 0, n, k, o, func(t int) uint64 {
		kc.Tasklets = t
		return model.GEMMRowCycles(n, k, kc)
	})
	mp := Mapping{
		Mode:                RowsPerDPU,
		Tasklets:            tasklets,
		TileCols:            o.TileCols,
		Naive:               o.Naive,
		PredictedWaveCycles: cycles,
	}
	p.finish(&mp, m)
	return mp
}

// GEMMBatch plans the image-per-DPU mapping: each of `images` DPUs
// computes the whole m×n×k product for its own B matrix. The per-DPU
// cost is image-count independent, so the memoized search keys on the
// problem shape alone and the wave geometry follows the image count.
func (p *Planner) GEMMBatch(m, n, k, images int, o GEMMOptions) Mapping {
	o.normalize(k, true)
	kc := model.KernelConfig{Opt: p.cfg.Opt, TileCols: o.TileCols, Naive: false}
	tasklets, cycles := p.searched(ImagePerDPU, m, n, k, o, func(t int) uint64 {
		kc.Tasklets = t
		return model.GEMMBatchCycles(m, n, k, kc)
	})
	mp := Mapping{
		Mode:                ImagePerDPU,
		Tasklets:            tasklets,
		TileCols:            o.TileCols,
		PredictedWaveCycles: cycles,
	}
	p.finish(&mp, images)
	return mp
}

// Plan enumerates both shard mappings for a GEMM layer — rows-per-DPU
// (m row shards) against image-per-DPU (`images` whole-product shards)
// — and returns the one with the lower predicted latency for the whole
// dispatch. Callers whose execution path fixes the mapping (Multiply vs
// MultiplyBatch) use GEMM/GEMMBatch directly.
func (p *Planner) Plan(m, n, k, images int, o GEMMOptions) Mapping {
	row := p.GEMM(m, n, k, o)
	if images < 1 {
		return row
	}
	// Row mode processes the batch serially: one forward per image.
	row.PredictedSeconds *= float64(images)
	batch := p.GEMMBatch(m, n, k, images, o)
	if batch.PredictedSeconds < row.PredictedSeconds {
		return batch
	}
	return row
}

// EBNN plans the multiple-images-per-DPU eBNN mapping: shards of up to
// batchSize images per DPU. The tasklet choice targets the dominant
// (full-batch) wave; the predicted latency sums every wave, including a
// final partial one.
func (p *Planner) EBNN(sh model.EBNNShape, images, batchSize int) Mapping {
	if images < 1 {
		images = batchSize
	}
	perDPU := images
	if perDPU > batchSize {
		perDPU = batchSize
	}
	tasklets, cycles := searchTasklets(dpu.MaxTasklets, func(t int) uint64 {
		return model.EBNNWaveCycles(sh, perDPU, t, p.cfg.Opt)
	})
	shards := (images + batchSize - 1) / batchSize
	mp := Mapping{
		Mode:                ImagePerDPU,
		Tasklets:            tasklets,
		PredictedWaveCycles: cycles,
	}
	p.finish(&mp, shards)
	// Waves holding any full shard cost the full-batch cycles; only a
	// final wave consisting solely of the partial shard costs less.
	lastWaveShards := shards - (mp.Waves-1)*mp.DPUs
	if last := images - (shards-1)*batchSize; last != batchSize && lastWaveShards == 1 && shards > 1 {
		partial := model.EBNNWaveCycles(sh, last, tasklets, p.cfg.Opt)
		total := uint64(mp.Waves-1)*cycles + partial
		mp.PredictedSeconds = float64(total) / p.cfg.FrequencyHz
	}
	return mp
}

// finish fills the shard-count-dependent wave geometry and converts
// cycles to seconds.
func (p *Planner) finish(mp *Mapping, shards int) {
	if shards < 1 {
		shards = 1
	}
	width := shards
	if width > p.dpus {
		width = p.dpus
	}
	mp.DPUs = width
	mp.Waves = (shards + width - 1) / width
	mp.PredictedSeconds = float64(mp.PredictedWaveCycles) * float64(mp.Waves) / p.cfg.FrequencyHz
}

// searched memoizes searchTasklets per shape and options, deriving an
// unset tasklet cap (GEMMTaskletCap) on a miss. The hot path (repeated
// forwards over the same network) hits the copy-on-write cache and
// allocates nothing.
func (p *Planner) searched(mode Mode, m, n, k int, o GEMMOptions, cost func(int) uint64) (int, uint64) {
	cached := p.cache.Load()
	if cached != nil {
		for i := range *cached {
			e := &(*cached)[i]
			if e.mode == mode && e.m == m && e.n == n && e.k == k && e.opts == o {
				return e.tasklets, e.cycles
			}
		}
	}
	maxT := o.MaxTasklets
	if maxT <= 0 {
		maxT = p.GEMMTaskletCap(o.MaxK, o.TileCols, o.Batch)
	}
	tasklets, cycles := searchTasklets(maxT, cost)
	next := make([]cacheEntry, 0, 8)
	if cached != nil {
		next = append(next, *cached...)
	}
	next = append(next, cacheEntry{
		mode: mode, m: m, n: n, k: k, opts: o,
		tasklets: tasklets, cycles: cycles,
	})
	p.cache.Store(&next)
	return tasklets, cycles
}

// searchTasklets finds the tasklet count in [1, maxT] minimizing cost,
// breaking ties toward fewer tasklets (less WRAM pressure, identical
// latency), by scoring every candidate: at most dpu.MaxTasklets of them
// per shape.
func searchTasklets(maxT int, cost func(int) uint64) (int, uint64) {
	if maxT < 1 {
		maxT = 1
	}
	best, bestC := 1, cost(1)
	for t := 2; t <= maxT; t++ {
		if c := cost(t); c < bestC {
			best, bestC = t, c
		}
	}
	return best, bestC
}
