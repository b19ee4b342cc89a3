package isa

import (
	"fmt"

	"pimdnn/internal/dpu"
)

// MaxSteps bounds interpreter execution to catch runaway programs.
const MaxSteps = 100_000_000

// Regs is a tasklet register file snapshot.
type Regs [NumRegs]uint32

// Load stores a program into the DPU's IRAM, enforcing the 24 KB limit.
func Load(d *dpu.DPU, p Program) error {
	if err := p.validate(); err != nil {
		return err
	}
	return d.LoadIRAM(p.Image())
}

// validate rejects a program holding an instruction whose opcode or
// register fields are out of range (a hand-built Program; the assembler
// and FromImage produce none).
func (p Program) validate() error {
	for i, in := range p.Ins {
		if !in.Valid() {
			return fmt.Errorf("isa: instruction %d invalid: %+v", i, in)
		}
	}
	return nil
}

// Kernel returns a dpu.KernelFunc that executes the program currently
// loaded in the DPU's IRAM: each tasklet reads the image, decodes it
// (FromImage) and interprets it (Exec), so one closure runs whatever was
// loaded last, on any DPU. init, if non-nil, seeds each tasklet's
// registers; final, if non-nil, receives each tasklet's register file
// after HALT.
func Kernel(init func(tid int, r *Regs), final func(tid int, r Regs)) dpu.KernelFunc {
	return func(t *dpu.Tasklet) error {
		prog, err := FromImage(t.IRAM())
		if err != nil {
			return err
		}
		var regs Regs
		if init != nil {
			init(t.ID(), &regs)
		}
		if err := Exec(t, prog, &regs); err != nil {
			return err
		}
		if final != nil {
			final(t.ID(), regs)
		}
		return nil
	}
}

// Exec interprets the program on the tasklet, starting from instruction 0
// with the given register file, until HALT or the end of the program.
// Every instruction charges the DPU cost model; because programs are
// already instruction streams, per-statement compiler overhead does not
// apply — run the DPU at O2/O3 for assembly-faithful accounting. The
// program is validated first, so a register field outside the file is an
// error here, not an index panic mid-run.
func Exec(t *dpu.Tasklet, p Program, regs *Regs) error {
	if err := p.validate(); err != nil {
		return err
	}
	pc := 0
	for steps := 0; ; steps++ {
		if steps > MaxSteps {
			return fmt.Errorf("isa: exceeded %d steps (runaway program?)", MaxSteps)
		}
		if pc < 0 || pc > len(p.Ins) {
			return fmt.Errorf("isa: pc %d outside program of %d instructions", pc, len(p.Ins))
		}
		if pc == len(p.Ins) {
			return nil // fell off the end: implicit halt
		}
		in := p.Ins[pc]
		pc++
		switch in.Op {
		case OpNOP:
			t.Charge(dpu.OpNop, 1)
		case OpHALT:
			t.Charge(dpu.OpNop, 1)
			return nil
		case OpMOVI:
			t.Charge(dpu.OpMove, 1)
			regs[in.Rd] = uint32(in.Imm)
		case OpMOV:
			t.Charge(dpu.OpMove, 1)
			regs[in.Rd] = regs[in.Rs1]
		case OpLB:
			regs[in.Rd] = uint32(int32(t.Load8(memAddr(regs, in))))
		case OpLH:
			regs[in.Rd] = uint32(int32(t.Load16(memAddr(regs, in))))
		case OpLW:
			regs[in.Rd] = t.Load32(memAddr(regs, in))
		case OpSB:
			t.Store8(memAddr(regs, in), int8(regs[in.Rs2]))
		case OpSH:
			t.Store16(memAddr(regs, in), int16(regs[in.Rs2]))
		case OpSW:
			t.Store32(memAddr(regs, in), regs[in.Rs2])
		case OpADD:
			regs[in.Rd] = uint32(t.Add32(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
		case OpADDI:
			regs[in.Rd] = uint32(t.Add32(int32(regs[in.Rs1]), in.Imm))
		case OpSUB:
			regs[in.Rd] = uint32(t.Sub32(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
		case OpAND:
			regs[in.Rd] = t.And32(regs[in.Rs1], regs[in.Rs2])
		case OpOR:
			regs[in.Rd] = t.Or32(regs[in.Rs1], regs[in.Rs2])
		case OpXOR:
			regs[in.Rd] = t.Xor32(regs[in.Rs1], regs[in.Rs2])
		case OpSLL:
			regs[in.Rd] = uint32(t.Shl32(int32(regs[in.Rs1]), uint(in.Imm)&31))
		case OpSRL:
			t.Charge(dpu.OpShift, 1)
			regs[in.Rd] = regs[in.Rs1] >> (uint(in.Imm) & 31)
		case OpSRA:
			regs[in.Rd] = uint32(t.Shr32(int32(regs[in.Rs1]), uint(in.Imm)&31))
		case OpCAO:
			regs[in.Rd] = uint32(t.Popcount32(regs[in.Rs1]))
		case OpMUL8:
			regs[in.Rd] = uint32(t.Mul8(int8(regs[in.Rs1]), int8(regs[in.Rs2])))
		case OpMUL16:
			regs[in.Rd] = uint32(t.Mul16(int16(regs[in.Rs1]), int16(regs[in.Rs2])))
		case OpMUL:
			regs[in.Rd] = uint32(t.Mul32(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
		case OpDIV:
			regs[in.Rd] = uint32(t.Div32(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
		case OpREM:
			regs[in.Rd] = uint32(t.Mod32(int32(regs[in.Rs1]), int32(regs[in.Rs2])))
		case OpFADD:
			regs[in.Rd] = t.FAdd(regs[in.Rs1], regs[in.Rs2])
		case OpFSUB:
			regs[in.Rd] = t.FSub(regs[in.Rs1], regs[in.Rs2])
		case OpFMUL:
			regs[in.Rd] = t.FMul(regs[in.Rs1], regs[in.Rs2])
		case OpFDIV:
			regs[in.Rd] = t.FDiv(regs[in.Rs1], regs[in.Rs2])
		case OpFLT:
			if t.FLt(regs[in.Rs1], regs[in.Rs2]) {
				regs[in.Rd] = 1
			} else {
				regs[in.Rd] = 0
			}
		case OpFSI:
			regs[in.Rd] = t.FFromInt(int32(regs[in.Rs1]))
		case OpFTS:
			regs[in.Rd] = uint32(t.FToInt(regs[in.Rs1]))
		case OpJ:
			t.Charge(dpu.OpBranch, 1)
			pc = int(in.Imm)
		case OpBEQ:
			t.Charge(dpu.OpBranch, 1)
			if regs[in.Rs1] == regs[in.Rs2] {
				pc = int(in.Imm)
			}
		case OpBNE:
			t.Charge(dpu.OpBranch, 1)
			if regs[in.Rs1] != regs[in.Rs2] {
				pc = int(in.Imm)
			}
		case OpBLT:
			t.Charge(dpu.OpBranch, 1)
			if int32(regs[in.Rs1]) < int32(regs[in.Rs2]) {
				pc = int(in.Imm)
			}
		case OpBGE:
			t.Charge(dpu.OpBranch, 1)
			if int32(regs[in.Rs1]) >= int32(regs[in.Rs2]) {
				pc = int(in.Imm)
			}
		case OpLDMA:
			t.MRAMToWRAM(int64(regs[in.Rs1]), int64(regs[in.Rs2]), int(in.Imm))
		case OpSDMA:
			t.WRAMToMRAM(int64(regs[in.Rs2]), int64(regs[in.Rs1]), int(in.Imm))
		case OpPCFG:
			t.PerfcounterConfig()
		case OpPGET:
			t.Charge(dpu.OpMove, 1)
			regs[in.Rd] = uint32(t.PerfcounterGet())
		case OpTID:
			t.Charge(dpu.OpMove, 1)
			regs[in.Rd] = uint32(t.ID())
		default:
			return fmt.Errorf("isa: pc %d: invalid opcode %d", pc-1, in.Op)
		}
	}
}

func memAddr(regs *Regs, in Instruction) int64 {
	return int64(int32(regs[in.Rs1]) + in.Imm)
}
