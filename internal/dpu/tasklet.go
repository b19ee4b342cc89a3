package dpu

import (
	"encoding/binary"
	"fmt"

	"pimdnn/internal/softfloat"
)

// trapError is raised by tasklet memory helpers on out-of-bounds or
// misaligned accesses and converted to an error by Launch, modeling a
// hardware memory fault.
type trapError string

// Tasklet is one DPU hardware thread executing a kernel. All arithmetic
// and memory helpers charge the cost model (or, for the bulk accessors
// of bulkmem.go, leave the charge to ChargeBlock); kernels that bypass
// them do work the simulator cannot see, so kernels must route every
// DPU-side operation through the tasklet. It is a kernel's only way into
// its DPU: the launch holds the DPU's lock, so a kernel that reached a
// DPU method would wait on itself.
type Tasklet struct {
	dpu   *DPU
	id    int
	count int

	slots uint64 // pipeline issue slots consumed
	dma   uint64 // DMA stall cycles

	// dmaBytes/dmaOps meter MRAM<->WRAM DMA traffic for telemetry
	// (aggregated once per launch). Kept separate from the cycle
	// accounting above: the cost model never reads them.
	dmaBytes uint64
	dmaOps   uint64

	opCounts [opKinds]uint64 // instruction mix per operation class

	// touched lists the op classes with nonzero opCounts entries, in
	// first-touch order, so the per-launch mix merge visits only the
	// handful of classes a kernel actually uses instead of scanning the
	// whole array per tasklet. Maintained by the charge helpers; reset
	// together with opCounts in the launch merge.
	touched  [opKinds]Op
	nTouched uint8

	pcSlots uint64 // perfcounter snapshot
	pcDMA   uint64
}

// reset zeroes the tasklet's meters, which are kept zero between
// launches.
func (t *Tasklet) reset() {
	for _, op := range t.touched[:t.nTouched] {
		t.opCounts[op] = 0
	}
	t.nTouched = 0
	t.slots, t.dma, t.dmaBytes, t.dmaOps, t.pcSlots, t.pcDMA = 0, 0, 0, 0, 0, 0
}

// ID returns the tasklet index within the launch (0-based).
func (t *Tasklet) ID() int { return t.id }

// Count returns the number of tasklets in the launch (NR_TASKLETS).
func (t *Tasklet) Count() int { return t.count }

func (t *Tasklet) trapf(format string, args ...interface{}) {
	panic(trapError(fmt.Sprintf(format, args...)))
}

// trapOn traps with err's message unless err is nil.
func (t *Tasklet) trapOn(err error) {
	if err != nil {
		panic(trapError(err.Error()))
	}
}

// Charge consumes issue slots for n operations of class op without
// computing anything. Kernels use it to account for control flow
// (branches, address arithmetic) the Go host language performs natively.
func (t *Tasklet) Charge(op Op, n int) {
	if n > 0 {
		t.ChargeBulk(op, uint64(n))
	}
}

// ChargeBulk consumes issue slots for n operations of class op in O(1)
// simulator time, and records their subroutine invocations in the DPU
// profile: the one per-op charge, which Charge and the arithmetic and
// memory helpers make with their own counts.
func (t *Tasklet) ChargeBulk(op Op, n uint64) {
	if n == 0 {
		return
	}
	e := cost(op, t.dpu.cfg.Opt)
	t.slots += n * (e.slots + stmtOverhead(op, t.dpu.cfg.Opt))
	if int(op) < len(t.opCounts) {
		if t.opCounts[op] == 0 {
			t.touched[t.nTouched] = op
			t.nTouched++
		}
		t.opCounts[op] += n
	}
	if e.subroutine != "" {
		t.dpu.prof.RecordN(e.subroutine, n, e.slots)
	}
}

// ChargeDMA accounts for n MRAM<->WRAM transfers of the given byte size
// each without moving data, for kernels that batch their data movement
// natively. size must satisfy the usual DMA constraints.
func (t *Tasklet) ChargeDMA(n uint64, size int) {
	if n == 0 {
		return
	}
	t.dmaCheck(0, 0, size)
	t.dma += n * dmaCycles(size)
	t.dmaBytes += n * uint64(size)
	t.dmaOps += n
}

// --- perfcounter (Fig 3.1) ---

// PerfcounterConfig resets the tasklet's cycle counter, mirroring
// perfcounter_config(COUNT_CYCLES, true).
func (t *Tasklet) PerfcounterConfig() {
	t.pcSlots = t.slots
	t.pcDMA = t.dma
}

// PerfcounterGet returns the cycles elapsed since PerfcounterConfig under
// the pipeline model: each issue slot occupies one pipeline revolution
// when few tasklets run (issue interval = max(PipelineDepth, count)).
func (t *Tasklet) PerfcounterGet() uint64 {
	interval := uint64(PipelineDepth)
	if uint64(t.count) > interval {
		interval = uint64(t.count)
	}
	return (t.slots-t.pcSlots)*interval + (t.dma - t.pcDMA)
}

// --- integer ALU ---

// Add32 returns a+b, charging one add.
func (t *Tasklet) Add32(a, b int32) int32 { t.ChargeBulk(OpAddInt, 1); return a + b }

// Sub32 returns a-b, charging one subtract.
func (t *Tasklet) Sub32(a, b int32) int32 { t.ChargeBulk(OpSubInt, 1); return a - b }

// Mul8 returns the product of two 8-bit operands.
func (t *Tasklet) Mul8(a, b int8) int32 { t.ChargeBulk(OpMul8, 1); return int32(a) * int32(b) }

// Mul16 returns the product of two 16-bit operands. At O0/O1 this is the
// __mulsi3 subroutine; at O2/O3 it lowers to inline instructions (§3.3).
func (t *Tasklet) Mul16(a, b int16) int32 { t.ChargeBulk(OpMul16, 1); return int32(a) * int32(b) }

// Mul32 returns the low 32 bits of a 32-bit product (always the __mulsi3
// subroutine; the DPU has no 32-bit multiply hardware).
func (t *Tasklet) Mul32(a, b int32) int32 {
	t.ChargeBulk(OpMul32, 1)
	return int32(int64(a) * int64(b))
}

// Div32 returns a/b (truncated) via the division subroutine. Division by
// zero traps.
func (t *Tasklet) Div32(a, b int32) int32 {
	t.ChargeBulk(OpDivInt, 1)
	if b == 0 {
		t.trapf("integer division by zero")
	}
	return a / b
}

// Mod32 returns a%b via the division subroutine.
func (t *Tasklet) Mod32(a, b int32) int32 {
	t.ChargeBulk(OpDivInt, 1)
	if b == 0 {
		t.trapf("integer modulo by zero")
	}
	return a % b
}

// Shl32 returns a<<s.
func (t *Tasklet) Shl32(a int32, s uint) int32 { t.ChargeBulk(OpShift, 1); return a << s }

// Shr32 returns a>>s (arithmetic).
func (t *Tasklet) Shr32(a int32, s uint) int32 { t.ChargeBulk(OpShift, 1); return a >> s }

// And32, Or32 and Xor32 are single-slot logic operations.
func (t *Tasklet) And32(a, b uint32) uint32 { t.ChargeBulk(OpLogic, 1); return a & b }

// Or32 returns a|b.
func (t *Tasklet) Or32(a, b uint32) uint32 { t.ChargeBulk(OpLogic, 1); return a | b }

// Xor32 returns a^b.
func (t *Tasklet) Xor32(a, b uint32) uint32 { t.ChargeBulk(OpLogic, 1); return a ^ b }

// Popcount32 counts set bits; the DPU ISA has a single-cycle CAO
// (count-all-ones) instruction, which is what makes XNOR-popcount binary
// convolutions cheap (§4.1.1).
func (t *Tasklet) Popcount32(a uint32) int32 {
	t.ChargeBulk(OpLogic, 1)
	n := int32(0)
	for a != 0 {
		a &= a - 1
		n++
	}
	return n
}

// --- software floating point (§3.3) ---

// FAdd computes a+b on binary32 bit patterns via __addsf3.
func (t *Tasklet) FAdd(a, b uint32) uint32 { t.ChargeBulk(OpFAdd, 1); return softfloat.Add(a, b) }

// FSub computes a-b via __subsf3.
func (t *Tasklet) FSub(a, b uint32) uint32 { t.ChargeBulk(OpFSub, 1); return softfloat.Sub(a, b) }

// FMul computes a*b via __mulsf3.
func (t *Tasklet) FMul(a, b uint32) uint32 { t.ChargeBulk(OpFMul, 1); return softfloat.Mul(a, b) }

// FDiv computes a/b via __divsf3.
func (t *Tasklet) FDiv(a, b uint32) uint32 { t.ChargeBulk(OpFDiv, 1); return softfloat.Div(a, b) }

// FLt reports a<b via __ltsf2.
func (t *Tasklet) FLt(a, b uint32) bool { t.ChargeBulk(OpFCmp, 1); return softfloat.Lt(a, b) }

// FGe reports a>=b via __gesf2.
func (t *Tasklet) FGe(a, b uint32) bool { t.ChargeBulk(OpFCmp, 1); return softfloat.Ge(a, b) }

// FFromInt converts an int32 to binary32 via __floatsisf.
func (t *Tasklet) FFromInt(v int32) uint32 {
	t.ChargeBulk(OpFloatFromInt, 1)
	return softfloat.FromInt32(v)
}

// FToInt converts binary32 to int32 (truncating) via __fixsfsi.
func (t *Tasklet) FToInt(a uint32) int32 { t.ChargeBulk(OpFloatToInt, 1); return softfloat.ToInt32(a) }

// --- WRAM access (1 cycle, §3.2.1) ---

func (t *Tasklet) wramCheck(off int64, size int64) {
	if off < 0 || off+size > int64(t.dpu.cfg.WRAMSize) {
		t.trapf("WRAM access [%d, %d) outside [0, %d)", off, off+size, t.dpu.cfg.WRAMSize)
	}
	if off%size != 0 {
		t.trapf("WRAM access at %d not %d-byte aligned", off, size)
	}
}

// Load8 reads a byte from WRAM.
func (t *Tasklet) Load8(off int64) int8 {
	t.ChargeBulk(OpLoad, 1)
	t.wramCheck(off, 1)
	return int8(t.dpu.wram[off])
}

// Store8 writes a byte to WRAM.
func (t *Tasklet) Store8(off int64, v int8) {
	t.ChargeBulk(OpStore, 1)
	t.wramCheck(off, 1)
	t.dpu.wram[off] = byte(v)
}

// Load16 reads a little-endian int16 from WRAM.
func (t *Tasklet) Load16(off int64) int16 {
	t.ChargeBulk(OpLoad, 1)
	t.wramCheck(off, 2)
	return int16(binary.LittleEndian.Uint16(t.dpu.wram[off:]))
}

// Store16 writes a little-endian int16 to WRAM.
func (t *Tasklet) Store16(off int64, v int16) {
	t.ChargeBulk(OpStore, 1)
	t.wramCheck(off, 2)
	binary.LittleEndian.PutUint16(t.dpu.wram[off:], uint16(v))
}

// Load32 reads a little-endian uint32 from WRAM.
func (t *Tasklet) Load32(off int64) uint32 {
	t.ChargeBulk(OpLoad, 1)
	t.wramCheck(off, 4)
	return binary.LittleEndian.Uint32(t.dpu.wram[off:])
}

// Store32 writes a little-endian uint32 to WRAM.
func (t *Tasklet) Store32(off int64, v uint32) {
	t.ChargeBulk(OpStore, 1)
	t.wramCheck(off, 4)
	binary.LittleEndian.PutUint32(t.dpu.wram[off:], v)
}

// --- MRAM DMA (Eq 3.4) ---

func (t *Tasklet) dmaCheck(wramOff, mramOff int64, n int) {
	if n <= 0 || n%DMAAlignment != 0 {
		t.trapf("DMA size %d not a positive multiple of %d", n, DMAAlignment)
	}
	if n > MaxDMATransfer {
		t.trapf("DMA size %d exceeds the %d-byte transfer limit", n, MaxDMATransfer)
	}
	if mramOff%DMAAlignment != 0 {
		t.trapf("DMA MRAM offset %d not %d-byte aligned", mramOff, DMAAlignment)
	}
	if mramOff < 0 || mramOff+int64(n) > t.dpu.cfg.MRAMSize {
		t.trapf("DMA MRAM range [%d, %d) outside [0, %d)", mramOff, mramOff+int64(n), t.dpu.cfg.MRAMSize)
	}
	if wramOff < 0 || wramOff+int64(n) > int64(t.dpu.cfg.WRAMSize) {
		t.trapf("DMA WRAM range [%d, %d) outside [0, %d)", wramOff, wramOff+int64(n), t.dpu.cfg.WRAMSize)
	}
}

// MRAMToWRAM copies n bytes from MRAM to WRAM through the DMA engine,
// charging 25 + n/2 cycles (Eq 3.4). n must be a multiple of 8 and at
// most 2048 (the per-transfer limit that caps the eBNN image batch at 16,
// §4.1.3).
func (t *Tasklet) MRAMToWRAM(wramOff, mramOff int64, n int) {
	t.dmaCheck(wramOff, mramOff, n)
	t.dma += dmaCycles(n)
	t.dmaBytes += uint64(n)
	t.dmaOps++
	t.dpu.mramRead(mramOff, t.dpu.wram[wramOff:wramOff+int64(n)])
}

// WRAMToMRAM copies n bytes from WRAM to MRAM through the DMA engine,
// charging 25 + n/2 cycles.
func (t *Tasklet) WRAMToMRAM(mramOff, wramOff int64, n int) {
	t.dmaCheck(wramOff, mramOff, n)
	t.dma += dmaCycles(n)
	t.dmaBytes += uint64(n)
	t.dmaOps++
	t.dpu.mramWrite(mramOff, t.dpu.wram[wramOff:wramOff+int64(n)])
}

// IssueSlots returns the pipeline issue slots this tasklet has consumed.
func (t *Tasklet) IssueSlots() uint64 { return t.slots }

// DMACycles returns the DMA stall cycles this tasklet has accumulated.
func (t *Tasklet) DMACycles() uint64 { return t.dma }
