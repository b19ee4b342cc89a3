package gemm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/fixed"
	"pimdnn/internal/host"
	"pimdnn/internal/model"
	"pimdnn/internal/plan"
	"pimdnn/internal/tensor"
	"pimdnn/internal/trace"
)

// DefaultTileCols is the number of output columns a tasklet processes per
// WRAM tile. 256 columns keep the per-k B-row DMA at 512 bytes while
// amortizing the 25-cycle DMA setup.
const DefaultTileCols = 256

// RunnerConfig sizes the per-DPU buffers. MRAM symbols are allocated once
// for the largest problem the runner will see.
type RunnerConfig struct {
	// MaxK and MaxN bound the problem sizes Multiply accepts.
	MaxK, MaxN int
	// Tasklets is the per-DPU tasklet count (Fig 4.7a sweeps this).
	Tasklets int
	// TileCols overrides DefaultTileCols when non-zero. Must be a
	// multiple of 4 so tile DMAs honor the 8-byte granularity.
	TileCols int
	// Naive selects the thesis's own kernel structure (§4.2.3/§4.3.3):
	// each tasklet owns the strided column set j, j+T, ..., and the
	// ctmp accumulator lives in MRAM because it is too large for WRAM
	// ("the internal buffer can reach up to 160 KB"), so every
	// multiply-accumulate performs per-element MRAM traffic. This is
	// the configuration behind the thesis's 65 s YOLOv3 headline; the
	// default (tiled) kernel is the §4.3.4-style improvement that
	// maximizes WRAM accesses.
	Naive bool
	// Planner, when non-nil, re-plans the mapping for every problem
	// shape Multiply/MultiplyBatchEach sees: the tasklet count (and wave
	// width) of each dispatch comes from the analytic cost model instead
	// of the Tasklets field. Tasklets then bounds the planner (WRAM
	// allocation size); left zero it defaults to the WRAM-feasible cap.
	// All candidate mappings produce bit-identical results — the planner
	// only moves work between tasklets and waves.
	Planner *plan.Planner
}

// kernelScratch is the host-side working set of one kernel invocation:
// a launch takes one (tasklet 0's functional pass). Pooled on the runner
// so a launch allocates nothing in steady state. Scratch is never
// simulated memory; what the kernel's WRAM staging costs is in its cost
// function.
type kernelScratch struct {
	aRow   []byte  // A bytes at the padded row stride; the batch pass grows it to m rows
	acc    []int32 // full-row accumulator (pad4(MaxN): B's padding lanes accumulate too, unread)
	rowBuf []byte  // packed C row (pad4(MaxN)*2); the batch pass grows it to m rows
}

// launchShape keys the cost cache (beside the tasklet count): the
// parameters a kernel's per-tasklet charge is a function of. batch
// selects the batch kernel's cost function, whose row count is m (1 for
// the row kernels, one output row per launch).
type launchShape struct {
	batch   bool
	m, n, k int
}

// Runner distributes Algorithm 2 GEMMs across a DPU system with the
// Fig 4.6 row-per-DPU mapping.
type Runner struct {
	sys      *host.System
	cfg      RunnerConfig
	tileCols int

	aOff, bOff, cOff          int64 // MRAM
	paramsOff, aWRAM, tileOff int64 // WRAM

	// Resolved symbol handles: transfers in the per-layer loops skip the
	// per-call name lookup.
	refA, refB, refC, refParams host.SymbolRef

	// The block kernels (blockKernel), built once in NewRunner; kernels
	// are stateless between launches apart from the pooled scratch. The
	// row kernel serves the tiled and the naive mapping of Fig 4.6: both
	// compute the same C row, so they share the functional pass and
	// differ only in the cost function the cost cache runs for them
	// (model.GEMMRowCost or model.GEMMNaiveCost). The batch kernel is the
	// image-per-DPU mapping's: the full M×N product for the B matrix
	// resident in this DPU's MRAM, charged from model.GEMMBatchCost.
	rowKernel   dpu.KernelFunc
	batchKernel dpu.KernelFunc

	// costs caches the per-tasklet charge of every launch shape seen
	// (see NewRunner).
	costs *dpu.CostCache[launchShape]

	// scratch pools per-tasklet kernel buffers. A sync.Pool (rather than
	// an array indexed by tasklet ID) because the same tasklet ID runs
	// concurrently on different DPUs during a parallel launch.
	scratch sync.Pool

	// Host-side transfer staging reused across calls. Multiply is not
	// safe for concurrent use on one Runner (the DPU symbols are shared
	// state), so plain fields suffice.
	bStage    []byte // padded B matrix broadcast buffer
	paramsBuf [24]byte

	// eng is the shared execution engine: it owns wave construction and
	// retry-and-remap (internal/exec). mws and mul are the row-mode
	// WorkSet adapter and its staging, bws the batch mode's adapter.
	eng *exec.Engine
	mws mulWorkSet
	mul mulStage
	bws batchWorkSet

	// Batch (image-per-DPU) mode, set up by EnableBatch.
	maxM                          int
	aFullOff, cFullOff, aCacheOff int64
	refAFull, refCFull            host.SymbolRef
	aFullStage                    []byte
	batchC                        [][]int16 // per-image C, held across its runs

	// Weight residency (EnableResidency): this runner's resident set in
	// the shared cache, nil when it has none.
	wmodel *exec.ResidentModel

	// req is the request span calls run under (SetTraceSpan), nil when
	// untraced.
	req *trace.Span

	// Auto-mapping (RunnerConfig.Planner): batchAllocT is the tasklet
	// count the batch-mode WRAM cache was allocated for.
	planner     *plan.Planner
	batchAllocT int
}

// NewRunner allocates the GEMM symbols on every DPU of the system.
func NewRunner(sys *host.System, cfg RunnerConfig) (*Runner, error) {
	if cfg.MaxK < 1 || cfg.MaxN < 1 {
		return nil, fmt.Errorf("gemm: bad bounds MaxK=%d MaxN=%d", cfg.MaxK, cfg.MaxN)
	}
	tileCols := cfg.TileCols
	if tileCols == 0 {
		tileCols = DefaultTileCols
	}
	if cfg.Planner != nil && cfg.Tasklets == 0 {
		// The planner re-plans per shape; the per-tasklet WRAM tile area
		// is allocated once at the feasible cap so every plan fits.
		cfg.Tasklets = cfg.Planner.GEMMTaskletCap(cfg.MaxK, tileCols, false)
	}
	if cfg.Tasklets < 1 || cfg.Tasklets > dpu.MaxTasklets {
		return nil, fmt.Errorf("gemm: tasklet count %d outside 1..%d", cfg.Tasklets, dpu.MaxTasklets)
	}
	if tileCols%4 != 0 || tileCols < 4 {
		return nil, fmt.Errorf("gemm: TileCols %d must be a positive multiple of 4", tileCols)
	}
	if 2*tileCols > dpu.MaxDMATransfer {
		return nil, fmt.Errorf("gemm: TileCols %d exceeds the DMA transfer limit", tileCols)
	}
	r := &Runner{sys: sys, cfg: cfg, tileCols: tileCols, planner: cfg.Planner}

	refs, err := sys.Alloc(r.layout(0, 0))
	if err != nil {
		return nil, fmt.Errorf("gemm: %w", err)
	}
	// GEMMLayout's rows: A row, B, C row, ctmp; params, staged A row, tiles.
	r.refA, r.refB, r.refC, r.refParams = refs[0], refs[1], refs[2], refs[4]
	r.aOff, r.bOff, r.cOff = refs[0].Offset(), refs[1].Offset(), refs[2].Offset()
	r.paramsOff, r.aWRAM, r.tileOff = refs[4].Offset(), refs[5].Offset(), refs[6].Offset()

	aRowBytes := (cfg.MaxK*2 + 7) &^ 7
	r.scratch.New = func() interface{} {
		return &kernelScratch{
			aRow:   make([]byte, aRowBytes),
			acc:    make([]int32, pad4(cfg.MaxN)),
			rowBuf: make([]byte, pad4(cfg.MaxN)*2),
		}
	}
	// A launch charges what the configured kernel variant's cost function
	// (internal/model — the same function the planner evaluates) states
	// for its shape.
	r.costs = dpu.NewCostCache(func(b *dpu.CostBlock, sh launchShape, t, tasklets int) {
		switch {
		case sh.batch:
			model.GEMMBatchCost(b, t, tasklets, sh.m, sh.n, sh.k, r.tileCols)
		case r.cfg.Naive:
			model.GEMMNaiveCost(b, t, tasklets, sh.n, sh.k)
		default:
			model.GEMMRowCost(b, t, tasklets, sh.n, sh.k, r.tileCols)
		}
	})
	r.rowKernel, r.batchKernel = r.blockKernel(false), r.blockKernel(true)
	r.eng = exec.New(sys, exec.Config{})
	r.mws.r = r
	return r, nil
}

// SetTraceSpan attaches the request span the next calls run under: each
// opens its layer's span (a named Layer) and a "gemm.multiply" or
// "gemm.batch" child under it carrying the engine's wave and per-DPU
// kernel spans. nil detaches. One pointer store when tracing is off.
func (r *Runner) SetTraceSpan(sp *trace.Span) { r.req = sp }

// EnableResidency joins this runner to a weight cache under the given
// model name: batch calls for a named Layer broadcast their weight
// matrix into the cache's MRAM arena once, under the layer's Key, and
// skip the transfer on repeated forwards. Runners sharing one System
// may share one cache; the LRU budget then arbitrates between their
// models.
func (r *Runner) EnableResidency(cache *exec.WeightCache, model string) {
	r.wmodel = cache.Model(model)
}

// hashInt16s is FNV-1a over the little-endian bytes of v — the content
// guard that re-delivers resident weights when a layer key is reused
// with different data.
func hashInt16s(v []int16) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range v {
		h ^= uint64(uint16(x)) & 0xff
		h *= prime64
		h ^= uint64(uint16(x)) >> 8
		h *= prime64
	}
	return h
}

// Tasklets returns the configured per-DPU tasklet count — the planner's
// sweep bound (and WRAM allocation size) when auto-mapping is on.
func (r *Runner) Tasklets() int { return r.cfg.Tasklets }

// layout is the runner's DPU memory with the batch rows for maxM rows
// and an A-row cache of `slots` (none when maxM is 0).
func (r *Runner) layout(maxM, slots int) dpu.Layout {
	return model.GEMMLayout(r.cfg.MaxK, r.cfg.MaxN, r.tileCols, r.cfg.Tasklets, maxM, slots)
}

// System returns the underlying DPU system.
func (r *Runner) System() *host.System { return r.sys }

func (r *Runner) getScratch() *kernelScratch {
	return r.scratch.Get().(*kernelScratch)
}

// packClamped rescale-clamps ctmp[:cols] into little-endian int16 output
// bytes, four lanes per 8-byte store, zeroing the padding tail.
func packClamped(out []byte, ctmp []int32, cols, chunkBytes int) {
	j := 0
	for ; j+4 <= cols; j += 4 {
		v := uint64(uint16(fixed.GEMMOutputClamp(ctmp[j]))) |
			uint64(uint16(fixed.GEMMOutputClamp(ctmp[j+1])))<<16 |
			uint64(uint16(fixed.GEMMOutputClamp(ctmp[j+2])))<<32 |
			uint64(uint16(fixed.GEMMOutputClamp(ctmp[j+3])))<<48
		binary.LittleEndian.PutUint64(out[j*2:], v)
	}
	for ; j < cols; j++ {
		binary.LittleEndian.PutUint16(out[j*2:], uint16(fixed.GEMMOutputClamp(ctmp[j])))
	}
	for b := cols * 2; b < chunkBytes; b++ {
		out[b] = 0
	}
}

// kernelParams is the decoded kernel parameter block (see encodeParams).
type kernelParams struct {
	n, k, m int
	alpha   int32
	aoff    int64 // MRAM address of the A payload
}

// readParams decodes the parameter block in place. The block kernels
// read it uncharged — the parameter loads are part of the charge their
// cost function states — and validate it before anything indexes by it.
func (r *Runner) readParams(t *dpu.Tasklet) kernelParams {
	w := t.WRAMWindow(r.paramsOff, int64(len(r.paramsBuf)))
	word := func(i int) int32 { return int32(binary.LittleEndian.Uint32(w[i*4:])) }
	return kernelParams{n: int(word(0)), k: int(word(1)), alpha: int32(int16(word(2))),
		m: int(word(3)), aoff: int64(word(4))}
}

// A block kernel is its cost function times one functional pass per DPU:
// tasklet 0 validates the launch, computes the whole product (flatPass)
// and charges every tasklet its block of the launch shape's cost, which
// ends the launch: the other tasklets, with nothing to do, are not run.
// The tasklet partition, tileCols and the A-row cache are inputs of the
// cost function (internal/model) and of flatPass's precondition checks
// only — nothing executes by tasklet, so host time does not depend on
// the tasklet count a caller or the planner picks.
func (r *Runner) blockKernel(batch bool) dpu.KernelFunc {
	return func(t *dpu.Tasklet) error {
		lc, err := r.flatPass(t, batch)
		if err != nil {
			return err
		}
		t.ChargeLaunch(lc)
		return nil
	}
}

// flatPass validates the launch and computes its whole product once: the
// C row of the A row at the parameter block's address in row mode, all
// p.m rows of the weight matrix there in batch mode. A arrives in one
// MRAM read (from the runner's A symbol, or in batch mode an arena slot
// when the weights are resident), each staged row's int16 lanes are
// multiply-accumulated over whole B rows in place in the MRAM pages, the
// sums are scaled by alpha once per C row, and the packed C rows leave in
// one MRAM write; each of these tasklet accesses traps out of bounds or
// misaligned. Scaling the sum instead of each A element (Algorithm 2
// line 5's APART) is the same number: mod 2³², Σ(α·A)·B ≡ α·Σ A·B. It
// returns the launch's per-tasklet charge.
func (r *Runner) flatPass(t *dpu.Tasklet, batch bool) (*dpu.LaunchCost, error) {
	p := r.readParams(t)
	n, k := p.n, p.k
	// Row mode models a B/ctmp/C tile slot per tasklet, batch mode an
	// A-row cache slot.
	m, maxM, cOff := 1, 1, r.cOff
	slots, slotBytes, allocT := r.tileOff, int64(r.tileCols)*8, r.cfg.Tasklets
	if batch {
		m, maxM, cOff = p.m, r.maxM, r.cFullOff
		slots, slotBytes, allocT = r.aCacheOff, int64((r.cfg.MaxK*2+7)&^7), r.batchAllocT
	}
	if n < 1 || k < 1 || m < 1 || n > r.cfg.MaxN || k > r.cfg.MaxK || m > maxM {
		return nil, fmt.Errorf("gemm kernel: bad params M=%d N=%d K=%d", m, n, k)
	}
	if t.Count() > allocT {
		return nil, fmt.Errorf("gemm kernel: %d tasklets launched, WRAM slots allocated for %d", t.Count(), allocT)
	}
	t.WRAMWindow(slots, int64(t.Count())*slotBytes)
	sc := r.getScratch()
	defer r.scratch.Put(sc)

	aBytes := (k*2 + 7) &^ 7
	sc.aRow = growBytes(sc.aRow, m*aBytes)
	t.ReadMRAM(p.aoff, sc.aRow)
	rowBytes := pad4(n) * 2
	sc.rowBuf = growBytes(sc.rowBuf, m*rowBytes)
	// acc spans B's whole padded row, so the MAC runs in whole groups of
	// four lanes; packClamped reads the first n.
	acc := sc.acc[:pad4(n)]
	var a []byte // the A row being multiplied
	mac := func(first, count int, block []byte, bstride int) {
		macBlock(acc, a[first*2:(first+count)*2], block, bstride)
	}
	for row := 0; row < m; row++ {
		a = sc.aRow[row*aBytes:]
		clear(acc)
		t.MRAMRowRuns(r.bOff, int64(rowBytes), rowBytes, k, mac)
		if p.alpha != 1 {
			for j := range acc[:n] {
				acc[j] *= p.alpha
			}
		}
		packClamped(sc.rowBuf[row*rowBytes:], acc, n, rowBytes)
	}
	t.WriteMRAM(cOff, sc.rowBuf)
	return r.costs.Launch(launchShape{batch, m, n, k}, t.Count()), nil
}

// Kernel returns the configured row kernel variant, exposed so callers
// can launch it directly on a bare DPU for profiling. The closure is
// built once and reused across launches.
func (r *Runner) Kernel() dpu.KernelFunc { return r.rowKernel }

// Stats describes one distributed GEMM. It is the execution engine's
// unified per-dispatch accounting struct (see internal/exec): Waves,
// DPUsUsed, Cycles, Seconds, and Retries, identical across all runners.
type Stats = exec.Stats

// packRows packs rows rows of k int16 from src into dst as little-endian
// bytes at a stride of rowBytes, zeroing each row's alignment tail.
func packRows(dst []byte, rowBytes int, src []int16, rows, k int) {
	for i := 0; i < rows; i++ {
		row := dst[i*rowBytes : (i+1)*rowBytes]
		tensor.PackLE(row, src[i*k:(i+1)*k])
		clear(row[k*2:])
	}
}

// clearPadding zeroes columns n..stride of a k-row B matrix staged at stride.
func clearPadding(b []byte, k, n, stride int) {
	for kk := 0; stride > n && kk < k; kk++ {
		clear(b[(kk*stride+n)*2 : (kk+1)*stride*2])
	}
}

// encodeParams fills the kernel parameter block staging buffer. aoff is
// the absolute MRAM address the kernel stages the A payload from: the
// runner's own A symbol normally, a weight-cache arena slot when a
// batch call's weights are resident.
func (r *Runner) encodeParams(n, k, m int, alpha int16, aoff int64) {
	binary.LittleEndian.PutUint32(r.paramsBuf[0:], uint32(n))
	binary.LittleEndian.PutUint32(r.paramsBuf[4:], uint32(k))
	binary.LittleEndian.PutUint32(r.paramsBuf[8:], uint32(uint16(alpha)))
	binary.LittleEndian.PutUint32(r.paramsBuf[12:], uint32(m))
	binary.LittleEndian.PutUint32(r.paramsBuf[16:], uint32(aoff))
	binary.LittleEndian.PutUint32(r.paramsBuf[20:], 0) // 8-byte pad
}

// mulStage is the staging of the row-per-DPU mapping: per-DPU A-row
// scatter buffers and C-row gather buffers, min(M, NumDPUs) of each.
type mulStage struct {
	aStage []byte
	aBufs  [][]byte
	cStage []byte
	cBufs  [][]byte
}

// ensureMulStage sizes the staging for waves of up to width DPUs at the
// given row sizes. The per-DPU slice headers are allocated once, for
// every DPU of the system, and resliced to the width.
func (r *Runner) ensureMulStage(width, rowBytes, cBytes int) {
	sl := &r.mul
	sl.aStage = growBytes(sl.aStage, width*rowBytes)
	sl.cStage = growBytes(sl.cStage, width*cBytes)
	if sl.aBufs == nil {
		nd := r.sys.NumDPUs()
		sl.aBufs, sl.cBufs = make([][]byte, nd), make([][]byte, nd)
	}
	sl.aBufs, sl.cBufs = sl.aBufs[:width], sl.cBufs[:width]
	for i := 0; i < width; i++ {
		sl.aBufs[i] = sl.aStage[i*rowBytes : (i+1)*rowBytes]
		sl.cBufs[i] = sl.cStage[i*cBytes : (i+1)*cBytes]
	}
}

// mulWorkSet adapts the Fig 4.6 row-per-DPU mapping to the execution
// engine: one shard per row of A, the B matrix and parameter block as
// wave-invariant broadcasts, A rows as the scatter stream, C rows as
// the gather stream. A row's work is its n·k MACs.
type mulWorkSet struct {
	r                 *Runner
	a, c              []int16
	m, n, k, tasklets int
	rowBytes          int
	bcasts            []exec.Broadcast
	streams           []exec.Stream
}

func (w *mulWorkSet) Shards() int                  { return w.m }
func (w *mulWorkSet) Tasklets() int                { return w.tasklets }
func (w *mulWorkSet) Kernel() dpu.KernelFunc       { return w.r.Kernel() }
func (w *mulWorkSet) Broadcasts() []exec.Broadcast { return w.bcasts }
func (w *mulWorkSet) Work() int64                  { return int64(w.n) * int64(w.k) }

func (w *mulWorkSet) Encode(_, start, n int) {
	packRows(w.r.mul.aStage, w.rowBytes, w.a[start*w.k:], n, w.k)
}

func (w *mulWorkSet) Scatter(_, n int) []exec.Stream {
	w.streams = append(w.streams[:0], exec.Stream{Ref: w.r.refA, Bufs: w.r.mul.aBufs})
	return w.streams
}

func (w *mulWorkSet) Gather(_, n int) exec.Stream {
	return exec.Stream{Ref: w.r.refC, Bufs: w.r.mul.cBufs}
}

func (w *mulWorkSet) Decode(_, shard, i int) {
	tensor.UnpackLE(w.c[shard*w.n:(shard+1)*w.n], w.r.mul.cBufs[i])
}

// Layer names the network layer a GEMM call computes. The zero value is
// an anonymous call: no pim_layer_* scope, no layer span, no residency.
type Layer struct {
	// Name is the layer's pim_layer_* scope and its trace span's name.
	Name string
	// Key is the layer's weight-residency key (its index: a small int,
	// so the cache lookup allocates nothing).
	Key int
}

// call is one GEMM call as its prologue (begin) set it up.
type call struct {
	layer, op *trace.Span         // nil when untraced; layer also when anonymous
	tasklets  int                 // the dispatch's per-DPU tasklet count
	resident  *exec.ResidentEntry // a named batch call's arena entry, if any
}

// begin is the prologue of every GEMM call, a batch call over images
// when batch is set: it checks the problem against the runner's bounds,
// scopes the engine's pim_layer_* counters to l for this call, opens l's
// span and the call's "gemm.multiply" or "gemm.batch" child under the
// request span, keys residency by l.Key and plans the dispatch, stating
// the planner's prediction in st. end closes what it opened.
func (r *Runner) begin(l Layer, batch bool, m, n, k, images int, a []int16, st *Stats) (call, error) {
	c := call{tasklets: r.cfg.Tasklets}
	if batch {
		switch {
		case r.maxM == 0:
			return c, fmt.Errorf("gemm: batch mode not enabled (call EnableBatch)")
		case m > r.maxM:
			return c, fmt.Errorf("gemm: M=%d exceeds batch bound %d", m, r.maxM)
		case images < 1 || images > r.sys.NumDPUs():
			return c, fmt.Errorf("gemm: batch of %d images for %d DPUs", images, r.sys.NumDPUs())
		}
	}
	if err := checkA(m, n, k, a); err != nil {
		return c, err
	}
	if k > r.cfg.MaxK || n > r.cfg.MaxN {
		return c, fmt.Errorf("gemm: problem K=%d N=%d exceeds runner bounds K<=%d N<=%d",
			k, n, r.cfg.MaxK, r.cfg.MaxN)
	}
	r.eng.SetScope(l.Name)
	if parent := r.req; parent != nil {
		if l.Name != "" {
			c.layer = parent.StartChild(l.Name)
			c.layer.SetAttr("layer", int64(l.Key))
			parent = c.layer
		}
		op := "gemm.multiply"
		if batch {
			op = "gemm.batch"
		}
		c.op = parent.StartChild(op)
		c.op.SetAttr("m", int64(m))
		c.op.SetAttr("n", int64(n))
		c.op.SetAttr("k", int64(k))
		if batch {
			c.op.SetAttr("images", int64(images))
		}
	}
	r.eng.SetTraceSpan(c.op)
	if batch {
		// A batch launches a tasklet per A-row cache slot (the hand-tuned
		// tasklet count wherever that fits).
		c.tasklets = r.batchAllocT
		if l.Name != "" && r.wmodel != nil {
			c.resident, _ = r.wmodel.Entry(l.Key, int64(m*((k*2+7)&^7)), hashInt16s(a))
		}
	}
	if r.planner != nil {
		// The tile width and kernel are fixed at construction, and the
		// tasklet sweep is bounded by the WRAM allocated for this mode.
		o := plan.GEMMOptions{TileCols: r.tileCols, Naive: r.cfg.Naive && !batch, MaxK: r.cfg.MaxK, MaxTasklets: c.tasklets}
		psp := c.op.StartChild("plan")
		var mp plan.Mapping
		if batch {
			mp = r.planner.GEMMBatch(m, n, k, images, o)
		} else {
			mp = r.planner.GEMM(m, n, k, o)
		}
		c.tasklets, st.PredictedSeconds = mp.Tasklets, mp.PredictedSeconds
		psp.SetAttr("tasklets", int64(mp.Tasklets))
		psp.SetAttr("dpus", int64(mp.DPUs))
		psp.End()
	}
	return c, nil
}

// end closes the spans begin opened and detaches the engine from them.
func (r *Runner) end(c *call) {
	r.eng.SetTraceSpan(nil)
	c.op.End()
	c.layer.End()
}

// Multiply runs C = clamp((alpha·A·B)/32) with A of M×K, B of K×N,
// distributing one row of A (and one row of C) per DPU as in Fig 4.6.
// It is an anonymous call (see Layer).
func (r *Runner) Multiply(m, n, k int, alpha int16, a, b []int16) ([]int16, Stats, error) {
	if err := checkDims(m, n, k, a, b); err != nil {
		return nil, Stats{}, err
	}
	c := make([]int16, m*n)
	st, err := r.MultiplyFill(Layer{}, m, n, k, alpha, a, c, func(dst []byte, stride int) { packRows(dst, stride*2, b, k, n) })
	if err != nil {
		return nil, st, err
	}
	return c, st, nil
}

// MultiplyFill is Multiply for layer l with B written in place by
// fill(dst, stride): the K×N matrix as little-endian int16 in the
// broadcast staging buffer, row kk at byte kk*stride*2 (stride >= n; the
// runner zeroes the padding columns), so a producer such as im2col
// writes B once. fill runs once, on the caller. The product goes to c,
// which must hold m·n elements. Waves and fault recovery are the
// execution engine's (internal/exec); this method stages and adapts the
// matrices. The row mapping scatters A every call: l's weights are never
// resident.
func (r *Runner) MultiplyFill(l Layer, m, n, k int, alpha int16, a, c []int16, fill func(dst []byte, stride int)) (Stats, error) {
	var st Stats
	if len(c) != m*n {
		return st, fmt.Errorf("gemm: C has %d elements, want M*N=%d", len(c), m*n)
	}
	cl, err := r.begin(l, false, m, n, k, 0, a, &st)
	if err != nil {
		return st, err
	}
	rowBytes := (k*2 + 7) &^ 7
	stride := pad4(n)
	r.bStage = growBytes(r.bStage, k*stride*2)
	fill(r.bStage, stride)
	clearPadding(r.bStage, k, n, stride)
	r.encodeParams(n, k, 0, alpha, r.aOff)
	// A wave carries only its own rows.
	r.ensureMulStage(min(m, r.sys.NumDPUs()), rowBytes, stride*2)

	w := &r.mws
	w.a, w.c = a, c
	w.m, w.n, w.k, w.tasklets = m, n, k, cl.tasklets
	w.rowBytes = rowBytes
	w.bcasts = append(w.bcasts[:0],
		exec.Broadcast{Ref: r.refB, Data: r.bStage},
		exec.Broadcast{Ref: r.refParams, Data: r.paramsBuf[:]})
	err = r.eng.Run(w, &st)
	r.end(&cl)
	return st, err
}

// pad4 rounds n up to a multiple of 4 (columns), keeping 2-byte element
// rows 8-byte aligned.
func pad4(n int) int {
	return (n + 3) &^ 3
}
