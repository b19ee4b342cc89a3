package ebnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/model"
	"pimdnn/internal/softfloat"
	"pimdnn/internal/trace"
)

// DPU-side layout constants (§4.1.3 mapping).
const (
	// BatchSize is the number of images per DPU: 16, because a 16-image
	// batch of packed images fills the 2048-byte DMA transfer limit.
	BatchSize = 16
	// ResultSize is the per-image result buffer in MRAM: one byte per
	// pooled cell (bit f = filter f's activation), 169 bytes padded to
	// the 8-byte granularity.
	ResultSize = (PoolCells + 7) / 8 * 8 // 176
)

// kernelLayout carries the resolved symbol offsets into the kernel.
type kernelLayout struct {
	f       int
	useLUT  bool
	images  int64 // MRAM
	results int64 // MRAM
	lutMRAM int64 // MRAM (LUT model)
	nimages int64 // WRAM
	filters int64 // WRAM
	bn      int64 // WRAM (default model)
	scratch int64 // WRAM: per-tasklet image buffer + result buffer + LUT area
}

// perTaskletScratch is the WRAM each tasklet owns privately.
const perTaskletScratch = mnist.PackedSize + ResultSize // 304

// lutWRAMSize is the WRAM area holding the LUT after the MRAM->WRAM copy.
const lutWRAMSize = (LUTRows*DefaultFilters + 7) / 8 * 8 // 152

// Runner executes eBNN inference on a DPU system using the
// multiple-images-per-DPU mapping of §4.1.3.
type Runner struct {
	sys      *host.System
	model    *Model
	useLUT   bool
	tasklets int
	layout   kernelLayout

	// kernelFn is the kernel closure, built once at NewRunner and reused
	// for every launch, cells the cell table it last built (flatPass), and
	// costs the charge of every (images, tasklets) launch it has run.
	kernelFn dpu.KernelFunc
	cells    atomic.Pointer[cellTable]
	costs    *dpu.CostCache[int]

	// Resolved symbol handles for the per-wave transfer loops.
	refImages, refNImages, refResults host.SymbolRef

	// eng is the shared execution engine: it owns wave construction and
	// retry-and-remap (internal/exec). iws and stage are the WorkSet
	// adapter and its staging; classifyFn is the bound method classify,
	// stored once so Infer's parallel classification allocates no
	// closure, and byFeature the softmax weights it reads.
	eng        *exec.Engine
	iws        inferWorkSet
	stage      inferStage
	classifyFn func(lo, hi int)
	byFeature  []float32
}

// laneStride is the floats per feature in byFeature: classes 0-7 fill a
// YMM register of the class lanes (logits4), 8-9 the low half of an XMM.
const laneStride = 16

// inferStage is the staging of the multiple-images-per-DPU mapping:
// per-DPU packed-image and image-count scatter buffers, and the result
// gather views into the Infer call's result buffer.
type inferStage struct {
	imgStage []byte
	cntStage []byte
	imgBufs  [][]byte
	cntBufs  [][]byte
	resBufs  [][]byte
	counts   []int
}

// NewRunner deploys the model onto every DPU of the system: it allocates
// the MRAM/WRAM symbols and broadcasts the filters plus either the BN
// parameters (default model, Fig 4.2a) or the host-built LUT (Fig 4.2b).
func NewRunner(sys *host.System, m *Model, useLUT bool, tasklets int) (*Runner, error) {
	if err := m.checkShape(); err != nil {
		return nil, err
	}
	if tasklets < 1 || tasklets > dpu.MaxTasklets {
		return nil, fmt.Errorf("ebnn: tasklet count %d outside 1..%d", tasklets, dpu.MaxTasklets)
	}
	r := &Runner{sys: sys, model: m, useLUT: useLUT, tasklets: tasklets}

	refs, err := sys.Alloc(model.EBNNLayout(CostShape(m.F, useLUT), BatchSize))
	if err != nil {
		return nil, fmt.Errorf("ebnn: %w", err)
	}
	// EBNNLayout's rows: images, results, LUT; image count, filters, BN, scratch.
	r.refImages, r.refResults, r.refNImages = refs[0], refs[1], refs[3]
	r.layout = kernelLayout{
		f:       m.F,
		useLUT:  useLUT,
		images:  refs[0].Offset(),
		results: refs[1].Offset(),
		lutMRAM: refs[2].Offset(),
		nimages: refs[3].Offset(),
		filters: refs[4].Offset(),
		bn:      refs[5].Offset(),
		scratch: refs[6].Offset(),
	}

	// Broadcast the model parameters through the execution engine: a DPU
	// that misses a broadcast gets it redelivered; one that cannot be
	// reached is marked down so its stale model never contributes
	// predictions (internal/exec).
	r.eng = exec.New(sys, exec.Config{})
	r.iws.r = r
	filt := make([]byte, 16)
	for i, f := range m.Filters {
		binary.LittleEndian.PutUint16(filt[i*2:], f)
	}
	if err := r.eng.Broadcast(exec.Broadcast{Ref: refs[4], Data: filt}); err != nil {
		return nil, err
	}
	if useLUT {
		lut, _ := host.Pad8(m.BuildLUT())
		if err := r.eng.Broadcast(exec.Broadcast{Ref: refs[2], Data: lut}); err != nil {
			return nil, err
		}
	} else {
		bn := make([]byte, m.F*5*4)
		for i, p := range m.BN {
			for j, w := range []float32{p.W0, p.W1, p.W2, p.W3, p.W4} {
				binary.LittleEndian.PutUint32(bn[(i*5+j)*4:], math.Float32bits(w))
			}
		}
		if err := r.eng.Broadcast(exec.Broadcast{Ref: refs[5], Data: bn}); err != nil {
			return nil, err
		}
	}

	r.stage.init(sys.NumDPUs())
	r.costs = dpu.NewCostCache(func(b *dpu.CostBlock, images, t, tasklets int) {
		model.EBNNCost(b, t, tasklets, images, CostShape(m.F, useLUT))
	})
	r.kernelFn = r.kernel()
	r.classifyFn = r.classify
	r.byFeature = m.softmaxByFeature()
	return r, nil
}

// checkShape rejects a model whose parts disagree with F or with the ten
// classes: the runner's guard, and the only one between the softmax
// weights and classify's unchecked loads.
func (m *Model) checkShape() error {
	if m.F < 1 || m.F > 8 {
		return fmt.Errorf("ebnn: runner requires 1..8 filters (one result byte per cell), got %d", m.F)
	}
	ok := len(m.Filters) == m.F && len(m.BN) == m.F && len(m.Bias) == mnist.NumClasses && len(m.Weights) == mnist.NumClasses
	for _, row := range m.Weights {
		ok = ok && len(row) == m.FeatureLen()
	}
	if !ok {
		return fmt.Errorf("ebnn: model with F = %d needs %d filters and BN sets, %d biases and %d weight rows of %d",
			m.F, m.F, mnist.NumClasses, mnist.NumClasses, m.FeatureLen())
	}
	return nil
}

// SetTraceSpan attaches the request span the next Infer calls run under
// (see exec.Engine.SetTraceSpan); nil detaches.
func (r *Runner) SetTraceSpan(sp *trace.Span) { r.eng.SetTraceSpan(sp) }

// Tasklets returns the configured tasklet count.
func (r *Runner) Tasklets() int { return r.tasklets }

// kernel builds the block-charged DPU program: cost function × one
// functional pass per DPU, both run by tasklet 0. It reads and bounds the
// image count, moves the data in one flat pass over the launch, and
// charges every tasklet, in one ChargeLaunch that ends the launch, what
// model.EBNNCost states for it — the function the planner evaluates, run
// once per launch shape into the runner's cost cache. The tasklet
// partition, like the per-tasklet WRAM image and result slots, is
// modelled in EBNNCost and in NewRunner's WRAM allocation, not re-enacted
// on the host. The result bytes, cycles, instruction mix and subroutine
// profile are those of the per-op kernel the tests keep (legacy_test.go;
// TestFunctionIndependentOfPartition).
func (r *Runner) kernel() dpu.KernelFunc {
	l := r.layout
	return func(t *dpu.Tasklet) error {
		n := int(int32(binary.LittleEndian.Uint32(t.WRAMWindow(l.nimages, 4))))
		if n < 0 || n > BatchSize {
			return fmt.Errorf("ebnn kernel: bad image count %d", n)
		}
		l.flatPass(t, n, &r.cells)
		t.ChargeLaunch(r.costs.Launch(n, t.Count()))
		return nil
	}
}

// flatPass is the functional half of the block kernel: all n resident
// images, start to finish, on one tasklet, one table load per pooled
// cell. The launch first resolves the model state in this DPU's WRAM
// into the table's key: the filter words, and per filter ten activation
// bits act[f], bit pop being filter f's BN-BinAct output for the pooled
// value 9 − 2·pop — read from the LUT staged MRAM→WRAM (§4.1.4) or,
// without the LUT, from the software-float threshold fold and compare of
// Fig 4.2a, ten times per filter instead of once per cell. A key cache
// does not hold gets its table built (newCellTable) and published.
//
// Per image the packed pixels come in and the activation bytes go out by
// the tasklet's MRAM copies, which trap on the DMA engine's bounds and
// alignment rules.
func (l *kernelLayout) flatPass(t *dpu.Tasklet, n int, cache *atomic.Pointer[cellTable]) {
	nf := l.f
	k := cellKey{nf: nf}
	fw := t.WRAMWindow(l.filters, int64(nf)*2)
	for f := 0; f < nf; f++ {
		k.filters[f] = binary.LittleEndian.Uint16(fw[f*2:])
	}

	if l.useLUT {
		lut := t.WRAMWindow(l.scratch+dpu.MaxTasklets*perTaskletScratch, lutWRAMSize)
		t.ReadMRAM(l.lutMRAM, lut)
		for f := 0; f < nf; f++ {
			for pop := 0; pop <= FilterSize*FilterSize; pop++ {
				best := ConvMax - 2*pop
				k.act[f] |= uint32(lut[(best-ConvMin)*nf+f]&1) << uint(pop)
			}
		}
	} else {
		// Fold BN-BinAct into one threshold per filter, batched across
		// filters: scale = w3/w2, thr = (w1-w0) - w4/scale.
		bw := t.WRAMWindow(l.bn, int64(nf)*5*4)
		var w [5][8]uint32
		for f := 0; f < nf; f++ {
			for j := range w {
				w[j][f] = binary.LittleEndian.Uint32(bw[(f*5+j)*4:])
			}
		}
		var scale, diff, thr [8]uint32
		softfloat.DivSlice(scale[:nf], w[3][:nf], w[2][:nf])
		softfloat.SubSlice(diff[:nf], w[1][:nf], w[0][:nf])
		softfloat.DivSlice(w[4][:nf], w[4][:nf], scale[:nf])
		softfloat.SubSlice(thr[:nf], diff[:nf], w[4][:nf])
		for pop := 0; pop <= FilterSize*FilterSize; pop++ {
			best := softfloat.FromInt32(int32(ConvMax - 2*pop))
			for f := 0; f < nf; f++ {
				if softfloat.Ge(best, thr[f]) {
					k.act[f] |= 1 << uint(pop)
				}
			}
		}
	}

	tab := cache.Load()
	if tab == nil || tab.key != k {
		tab = newCellTable(k)
		cache.Store(tab)
	}
	var (
		packed [mnist.PackedSize]byte
		out    [ResultSize]byte
		rows   [mnist.Side]uint32
	)
	for img := 0; img < n; img++ {
		t.ReadMRAM(l.images+int64(img)*mnist.PackedSize, packed[:])
		for row := range rows {
			rows[row] = binary.LittleEndian.Uint32(packed[row*4:])
		}
		for pr := 0; pr < PoolSize; pr++ {
			r0, r1, r2, r3 := rows[pr*2], rows[pr*2+1], rows[pr*2+2], rows[pr*2+3]
			for pc := 0; pc < PoolSize; pc++ {
				c := uint(pc * 2)
				out[pr*PoolSize+pc] = tab.cells[uint16(r0>>c&15|(r1>>c&15)<<4|(r2>>c&15)<<8|(r3>>c&15)<<12)]
			}
		}
		t.WriteMRAM(l.results+int64(img)*ResultSize, out[:])
	}
}

// cellKey is the model state a pooled cell's activation byte depends on:
// the filter count, the filter words and the activation bits per filter.
type cellKey struct {
	nf      int
	filters [8]uint16
	act     [8]uint32
}

// cellTable is the cell function of one model state, enumerated: cells[p]
// is the activation byte of the cell whose 4×4 patch is p, nibble j
// holding patch row j (bit 0 its leftmost pixel).
type cellTable struct {
	key   cellKey
	cells [1 << 16]byte
}

// newCellTable evaluates the cell function on every patch. A window's
// popcount is the sum of its three rows': rowPops[j][v] holds, for all
// filters at once (byte lane f), the popcount of the three pixels v
// against row j of filter f, so a window is three lookups and two
// additions for every filter together, the 2×2 max-pool three lane-wise
// minima, and filter f's bit the act[f] bit at its lane's popcount.
func newCellTable(k cellKey) *cellTable {
	var rowPops [FilterSize][8]uint64
	for f := 0; f < k.nf; f++ {
		for j := range rowPops {
			for v := range rowPops[j] {
				pop := bits.OnesCount32((uint32(k.filters[f])>>uint(3*j) ^ uint32(v)) & 7)
				rowPops[j][v] |= uint64(pop) << uint(8*f)
			}
		}
	}
	tab := &cellTable{key: k}
	p0, p1, p2 := &rowPops[0], &rowPops[1], &rowPops[2]
	for p := range tab.cells {
		// Its four windows: rows 0-2 and 1-3 at columns 0-2 and 1-3.
		a0, a1, a2, a3 := p&15, p>>4&15, p>>8&15, p>>12
		pops := minBytes(
			minBytes(p0[a0&7]+p1[a1&7]+p2[a2&7], p0[a0>>1]+p1[a1>>1]+p2[a2>>1]),
			minBytes(p0[a1&7]+p1[a2&7]+p2[a3&7], p0[a1>>1]+p1[a2>>1]+p2[a3>>1]))
		var acc uint32
		for f := 0; f < k.nf; f++ {
			acc |= (k.act[f] >> (pops >> uint(8*f) & 0xFF) & 1) << uint(f)
		}
		tab.cells[p] = byte(acc)
	}
	return tab
}

// minBytes returns the lane-wise minimum of two words of eight bytes,
// each below 128: with the top bit of every lane of x set, subtracting y
// borrows out of no lane and leaves that bit set exactly where x >= y.
func minBytes(x, y uint64) uint64 {
	const top = 0x8080808080808080
	ge := ((x | top) - y) & top >> 7 * 0xFF // 0xFF in the lanes where x >= y
	return y&ge | x&^ge
}

// BatchStats reports one inference run: the execution engine's unified
// dispatch accounting (waves, largest DPU count, cycles, Seconds of
// summed parallel DPU time, re-dispatched batches; see internal/exec)
// plus the number of images inferred.
type BatchStats struct {
	// Images is the number of images inferred.
	Images int
	exec.Stats
}

// Throughput returns images per second of DPU time.
func (s BatchStats) Throughput() float64 {
	if s.Seconds == 0 {
		return 0
	}
	return float64(s.Images) / s.Seconds
}

// init sizes the staging for a system of nd DPUs.
func (st *inferStage) init(nd int) {
	st.imgStage = make([]byte, nd*BatchSize*mnist.PackedSize)
	st.cntStage = make([]byte, nd*4)
	st.imgBufs = make([][]byte, nd)
	st.cntBufs = make([][]byte, nd)
	st.resBufs = make([][]byte, nd)
	st.counts = make([]int, nd)
	for i := 0; i < nd; i++ {
		st.imgBufs[i] = st.imgStage[i*BatchSize*mnist.PackedSize : (i+1)*BatchSize*mnist.PackedSize]
		st.cntBufs[i] = st.cntStage[i*4 : (i+1)*4]
	}
}

// inferWorkSet adapts the §4.1.3 multiple-images-per-DPU mapping to the
// execution engine: one shard per 16-image batch, the packed images and
// the per-DPU image counts as scatter streams, and the activation bytes
// as the gather stream (one uniform length per wave, the fused wave's
// contract), gathered straight into res: shard s at
// s·BatchSize·ResultSize, so image i's bytes sit at i·ResultSize and a
// re-dispatched shard lands in the same place. Decode has nothing to
// do; Infer classifies res once every wave is in.
type inferWorkSet struct {
	r      *Runner
	images []mnist.Image
	preds  []int
	res    []byte
	start  int // the current wave's first shard
	stream []exec.Stream
}

func (w *inferWorkSet) Shards() int {
	return (len(w.images) + BatchSize - 1) / BatchSize
}
func (w *inferWorkSet) Tasklets() int                { return w.r.tasklets }
func (w *inferWorkSet) Kernel() dpu.KernelFunc       { return w.r.kernelFn }
func (w *inferWorkSet) Broadcasts() []exec.Broadcast { return nil }

// Work is a full batch's conv MACs: every filter over every output
// pixel's taps, per image.
func (w *inferWorkSet) Work() int64 {
	return int64(min(len(w.images), BatchSize) * w.r.model.F * ConvSize * ConvSize * FilterSize * FilterSize)
}

func (w *inferWorkSet) Encode(_, start, n int) {
	st := &w.r.stage
	w.start = start
	wave := w.images[start*BatchSize : min((start+n)*BatchSize, len(w.images))]
	// The staging buffers are reused across waves; only the counts need
	// resetting (stale image bytes in unused slots are never read by
	// the kernel).
	counts := st.counts[:n]
	clear(counts)
	clear(st.cntStage)
	for i := range wave {
		d := i / BatchSize
		slot := i % BatchSize
		packed := wave[i].Pack()
		copy(st.imgBufs[d][slot*mnist.PackedSize:], packed[:])
		counts[d]++
	}
	for d, c := range counts {
		binary.LittleEndian.PutUint32(st.cntBufs[d], uint32(c))
	}
}

func (w *inferWorkSet) Scatter(_, n int) []exec.Stream {
	st := &w.r.stage
	w.stream = append(w.stream[:0],
		exec.Stream{Ref: w.r.refImages, Bufs: st.imgBufs},
		exec.Stream{Ref: w.r.refNImages, Bufs: st.cntBufs})
	return w.stream
}

func (w *inferWorkSet) Gather(_, n int) exec.Stream {
	st := &w.r.stage
	// The wave's gather reads one length from every DPU: images fill
	// DPUs in order, so DPU 0 always holds the largest count.
	resLen := st.counts[0] * ResultSize
	for d := 0; d < n; d++ {
		off := (w.start + d) * BatchSize * ResultSize
		st.resBufs[d] = w.res[off : off+resLen]
	}
	return exec.Stream{Ref: w.r.refResults, Bufs: st.resBufs}
}

func (w *inferWorkSet) Decode(_, _, _ int) {}

// classifyPacked is classify's portable path: predictPacked, image by
// image.
func (r *Runner) classifyPacked(lo, hi int) {
	w := &r.iws
	for i := lo * BatchSize; i < min(hi*BatchSize, len(w.preds)); i++ {
		w.preds[i] = r.model.predictPacked(r.byFeature, w.res[i*ResultSize:(i+1)*ResultSize])
	}
}

// Infer classifies the images: the host packs 16-image batches and
// scatters them across the DPUs, launches the kernel and gathers the
// activation bytes, wave by wave, then runs the softmax layer straight
// from those packed bytes (§4.1.3; classify) over every shard at once
// on the System's worker pool. Wave construction and fault recovery
// are the execution engine's (internal/exec). Every prediction lands at
// its image's index, so the result does not depend on the core count.
// Infer is not safe for concurrent use on one Runner: the staging
// buffers and the DPU symbols are shared state.
func (r *Runner) Infer(images []mnist.Image) ([]int, BatchStats, error) {
	if len(images) == 0 {
		return nil, BatchStats{}, fmt.Errorf("ebnn: no images")
	}
	stats := BatchStats{Images: len(images)}
	w := &r.iws
	w.images = images
	w.preds = make([]int, len(images))
	shards := w.Shards()
	if need := shards * BatchSize * ResultSize; cap(w.res) < need {
		w.res = make([]byte, need)
	} else {
		w.res = w.res[:need]
	}
	err := r.eng.Run(w, &stats.Stats)
	if err == nil {
		r.sys.ParallelFor(shards, r.classifyFn)
	}
	preds := w.preds
	w.images, w.preds = nil, nil
	if err != nil {
		return nil, stats, err
	}
	return preds, stats, nil
}

// softmaxByFeature returns the host softmax layer's weights
// feature-major, the layout predictPacked and logits4 read: feature i's
// NumClasses class weights at [i*laneStride, i*laneStride+NumClasses),
// the rest zero.
func (m *Model) softmaxByFeature() []float32 {
	w := make([]float32, m.FeatureLen()*laneStride)
	for c, row := range m.Weights {
		for i, v := range row {
			w[i*laneStride+c] = v
		}
	}
	return w
}

// predictPacked classifies one DPU result buffer (one byte per pooled
// cell, bit f = filter f) without expanding it: the argmax of
// logitsPacked, so PredictFeatures(DecodeFeatures(result, F)).
func (m *Model) predictPacked(byFeature []float32, result []byte) int {
	l := m.logitsPacked(byFeature, result)
	return argmax(l[:])
}

// logitsPacked is the softmax layer on one DPU result buffer: every set
// bit adds its feature's weights (byFeature is m.softmaxByFeature()) to
// the ten class sums, features in ascending index order, so each sum is
// the same sequence of float32 additions as Logits. It is the oracle of
// the class lanes (logits4).
func (m *Model) logitsPacked(byFeature []float32, result []byte) [mnist.NumClasses]float32 {
	// The class sums are scalars, not an array, so they stay in registers
	// across the loop (an array's elements are loaded and stored around
	// every addition: 2.5x slower on this function).
	b := m.Bias[:mnist.NumClasses]
	s0, s1, s2, s3, s4, s5, s6, s7, s8, s9 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9]
	mask := byte(uint(1)<<uint(m.F) - 1)
	for cell, r := range result[:PoolCells] {
		for set := r & mask; set != 0; set &= set - 1 {
			w := (*[mnist.NumClasses]float32)(byFeature[(cell*m.F+bits.TrailingZeros8(set))*laneStride:])
			s0 += w[0]
			s1 += w[1]
			s2 += w[2]
			s3 += w[3]
			s4 += w[4]
			s5 += w[5]
			s6 += w[6]
			s7 += w[7]
			s8 += w[8]
			s9 += w[9]
		}
	}
	return [mnist.NumClasses]float32{s0, s1, s2, s3, s4, s5, s6, s7, s8, s9}
}

// DecodeFeatures expands one DPU result buffer (one byte per pooled cell,
// bit f = filter f) into the flat feature vector layout of
// Model.Features.
func DecodeFeatures(result []byte, nf int) []byte {
	out := make([]byte, PoolCells*nf)
	DecodeFeaturesInto(out, result, nf)
	return out
}

// DecodeFeaturesInto is DecodeFeatures writing into a caller-provided
// buffer of at least PoolCells*nf bytes, so batch-inference loops can
// reuse one feature vector across images.
func DecodeFeaturesInto(out, result []byte, nf int) {
	for cell := 0; cell < PoolCells; cell++ {
		b := result[cell]
		for f := 0; f < nf; f++ {
			out[cell*nf+f] = (b >> uint(f)) & 1
		}
	}
}
