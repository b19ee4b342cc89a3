package dpu

import (
	"fmt"
	"sync/atomic"
)

// Block-level cycle accounting. A kernel whose inner loop is a
// straight-line sequence of operations does not need to charge them one
// at a time: the total cost of the sequence is a static function of the
// operation counts and the optimization level. A CostBlock precomputes
// that total once — issue slots (including per-statement overhead),
// per-class operation counts, subroutine occurrence records, and DMA
// stall cycles — so a tasklet can account for an execution of the
// sequence in O(1) with ChargeBlock.
//
// The charge is constructed from the same cost.go tables the per-op
// helpers use, so cycle totals, instruction mixes, perfcounter values
// and subroutine profiles are identical to charging each operation
// individually; the differential tests in the kernel packages enforce
// that equivalence. Totals are precomputed for every OptLevel, so one
// block (typically built once per runner or per problem shape) serves
// DPUs at any optimization level.

// CostBlock is the precomputed cost of a straight-line operation
// sequence. Build one with AddOp/AddDMA; zero value is an empty block.
// Building is not safe for concurrent use; charging a finished block
// from many tasklets concurrently is.
type CostBlock struct {
	ops      []blockOp // nonzero (op, count) pairs for mix accounting
	dmaOps   uint64
	dmaBytes uint64
	dmaCyc   uint64
	lv       [4]blockLevel // per-OptLevel totals
}

// blockOp is one operation class and its count within the block.
type blockOp struct {
	op Op
	n  uint64
}

// blockLevel is the block's total cost at one optimization level.
type blockLevel struct {
	slots uint64
	subs  []blockSub
}

// blockSub is one subroutine's occurrence record within the block.
type blockSub struct {
	name      string
	n         uint64
	slotsEach uint64
}

// NewCostBlock returns an empty block.
func NewCostBlock() *CostBlock { return &CostBlock{} }

// AddOp folds n operations of class op into the block and returns the
// block for chaining. Repeated AddOp calls for the same class merge.
// Invalid operation classes panic: blocks describe static kernel
// structure, so a bad class is a programming error.
func (b *CostBlock) AddOp(op Op, n uint64) *CostBlock {
	if op <= 0 || op >= opKinds {
		panic(fmt.Sprintf("dpu: CostBlock.AddOp: invalid op %d", int(op)))
	}
	if n == 0 {
		return b
	}
	merged := false
	for i := range b.ops {
		if b.ops[i].op == op {
			b.ops[i].n += n
			merged = true
			break
		}
	}
	if !merged {
		b.ops = append(b.ops, blockOp{op, n})
	}
	for opt := O0; opt <= O3; opt++ {
		e := cost(op, opt)
		lv := &b.lv[opt]
		lv.slots += n * (e.slots + stmtOverhead(op, opt))
		if e.subroutine != "" {
			found := false
			for i := range lv.subs {
				if lv.subs[i].name == e.subroutine {
					lv.subs[i].n += n
					found = true
					break
				}
			}
			if !found {
				lv.subs = append(lv.subs, blockSub{e.subroutine, n, e.slots})
			}
		}
	}
	return b
}

// AddDMA folds n MRAM<->WRAM transfers of size bytes each into the
// block (Eq 3.4 per transfer). size must satisfy the usual DMA
// constraints; violations panic, like AddOp.
func (b *CostBlock) AddDMA(n uint64, size int) *CostBlock {
	if size <= 0 || size%DMAAlignment != 0 || size > MaxDMATransfer {
		panic(fmt.Sprintf("dpu: CostBlock.AddDMA: invalid transfer size %d", size))
	}
	if n == 0 {
		return b
	}
	b.dmaOps += n
	b.dmaBytes += n * uint64(size)
	b.dmaCyc += n * dmaCycles(size)
	return b
}

// ChargeBulk and ChargeDMA are AddOp and AddDMA under the names
// Tasklet charges by, so one kernel cost function (internal/model) can
// emit into a tasklet's meters or into a block a runner caches.
func (b *CostBlock) ChargeBulk(op Op, n uint64) { b.AddOp(op, n) }

// ChargeDMA is AddDMA; see ChargeBulk.
func (b *CostBlock) ChargeDMA(n uint64, size int) { b.AddDMA(n, size) }

// ChargeBlock accounts for one execution of the block in O(1) simulator
// time: cycle totals, operation counts, subroutine occurrences and DMA
// accounting are identical to charging every operation individually.
func (t *Tasklet) ChargeBlock(b *CostBlock) {
	t.slots += b.lv[t.dpu.cfg.Opt].slots
	t.dma += b.dmaCyc
	t.dmaBytes += b.dmaBytes
	t.dmaOps += b.dmaOps
	t.chargeMix(b)
}

// chargeMix adds the block's operation counts and subroutine records —
// what a launch reports in total only.
func (t *Tasklet) chargeMix(b *CostBlock) {
	for _, o := range b.ops {
		if t.opCounts[o.op] == 0 {
			t.touched[t.nTouched] = o.op
			t.nTouched++
		}
		t.opCounts[o.op] += o.n
	}
	for _, s := range b.lv[t.dpu.cfg.Opt].subs {
		t.dpu.prof.RecordN(s.name, s.n, s.slotsEach)
	}
}

// LaunchCost is what one launch of a block kernel charges: a block per
// tasklet, for its cycle meters, and their sum, for the launch's
// operation counts and subroutine records.
type LaunchCost struct {
	blocks []CostBlock
	sum    CostBlock
}

// CostCache holds the LaunchCost of every launch shape (K, and the
// tasklet count) a kernel has charged, built on the shape's first launch
// by running the kernel's cost function (internal/model: the same
// function the planner evaluates) once per tasklet into a fresh block. A
// network has one shape per layer and a forward alternates them layer by
// layer, so a single-shape cache would miss on every call. The entries
// are a copy-on-write slice with inline keys, so kernels on different
// DPUs only read the published pointer (an entry's address stays valid
// after later publishes). A racing rebuild produces identical blocks, and
// losing the publish race just rebuilds once more on the next miss.
type CostCache[K comparable] struct {
	cost    func(b *CostBlock, key K, t, tasklets int)
	entries atomic.Pointer[[]launchEntry[K]]
}

type launchEntry[K comparable] struct {
	key K
	LaunchCost
}

// NewCostCache returns an empty cache over a cost function that emits
// into b what tasklet t of tasklets charges in one launch of shape key.
func NewCostCache[K comparable](cost func(b *CostBlock, key K, t, tasklets int)) *CostCache[K] {
	return &CostCache[K]{cost: cost}
}

// Launch returns the cost of a launch of shape key on tasklets tasklets.
// A hit allocates nothing.
func (c *CostCache[K]) Launch(key K, tasklets int) *LaunchCost {
	var seen []launchEntry[K]
	if p := c.entries.Load(); p != nil {
		seen = *p
	}
	for i := range seen {
		if e := &seen[i]; e.key == key && len(e.blocks) == tasklets {
			return &e.LaunchCost
		}
	}
	e := launchEntry[K]{key, LaunchCost{blocks: make([]CostBlock, tasklets)}}
	for t := range e.blocks {
		c.cost(&e.blocks[t], key, t, tasklets)
		c.cost(&e.sum, key, t, tasklets) // every tasklet's charge in one block
	}
	next := append(seen[:len(seen):len(seen)], e) // full slice: always copies
	c.entries.Store(&next)
	return &next[len(next)-1].LaunchCost
}

// ChargeLaunch charges a whole launch from one tasklet, with the
// statistics of every tasklet i calling ChargeBlock on block i: the
// operation counts and subroutine records of all of them land once, on
// the caller, and lc is recorded for the launch's merge, which adds
// block i to tasklet i's cycles from the shared blocks without touching
// the tasklets. It must be the launch's last charge: the launch ends
// with the caller (a block kernel's other tasklets have nothing to do,
// so they are not run), and the caller's own meters never show lc.
func (t *Tasklet) ChargeLaunch(lc *LaunchCost) {
	t.chargeMix(&lc.sum)
	t.dpu.scratch.launch = lc
}
