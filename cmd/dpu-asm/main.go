// Command dpu-asm is the developer tool for the miniature DPU ISA:
// assemble, disassemble and execute programs on a simulated DPU.
//
//	dpu-asm asm  prog.s         # assemble, print the IRAM word listing
//	dpu-asm dis  prog.s         # assemble then disassemble (round trip)
//	dpu-asm run  prog.s         # execute; dump registers, cycles, log
//	  -tasklets N   tasklet count (default 1)
//	  -O level      optimization level 0-3 (default 2)
//	  -demo         run the built-in demo program instead of a file
package main

import (
	"flag"
	"fmt"
	"os"

	"pimdnn/internal/dpu"
	"pimdnn/internal/isa"
)

const demoProgram = `
; demo: sum of squares 1..10, logged result in r2
	movi r1, 10
	movi r2, 0
loop:
	mul  r3, r1, r1
	add  r2, r2, r3
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dpu-asm:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("dpu-asm", flag.ExitOnError)
	tasklets := fs.Int("tasklets", 1, "tasklet count for run")
	optFlag := fs.Int("O", 2, "optimization level 0-3")
	demo := fs.Bool("demo", false, "use the built-in demo program")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dpu-asm [flags] {asm|dis|run} [prog.s]")
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	cmd := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		return err
	}

	src := demoProgram
	if !*demo {
		if fs.NArg() < 1 {
			return fmt.Errorf("command %q needs a program file (or -demo)", cmd)
		}
		raw, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(raw)
	}

	prog, err := isa.Assemble(src)
	if err != nil {
		return err
	}

	switch cmd {
	case "asm":
		fmt.Printf("%d instructions, %d bytes of IRAM (%d available)\n\n",
			len(prog.Ins), len(prog.Ins)*isa.WordSize, dpu.DefaultIRAMSize)
		for i, in := range prog.Ins {
			fmt.Printf("%4d  %016x  %v\n", i, in.Encode(), in)
		}
		return nil
	case "dis":
		fmt.Print(isa.Disassemble(prog))
		return nil
	case "run":
		return runProgram(prog, *tasklets, dpu.OptLevel(*optFlag))
	default:
		return fmt.Errorf("unknown command %q (want asm, dis or run)", cmd)
	}
}

func runProgram(prog isa.Program, tasklets int, opt dpu.OptLevel) error {
	d, err := dpu.New(dpu.DefaultConfig(opt))
	if err != nil {
		return err
	}
	if err := isa.Load(d, prog); err != nil {
		return err
	}
	finals := make(map[int]isa.Regs)
	st, err := d.Launch(tasklets, isa.Kernel(nil, func(tid int, r isa.Regs) {
		finals[tid] = r
	}))
	if err != nil {
		return err
	}
	fmt.Printf("completed: %d cycles = %v at %v, %d issue slots, %d DMA cycles\n",
		st.Cycles, st.Time, opt, st.IssueSlots, st.DMACycles)
	for tid := 0; tid < tasklets; tid++ {
		r := finals[tid]
		fmt.Printf("tasklet %d registers (non-zero):\n", tid)
		for i, v := range r {
			if v != 0 {
				fmt.Printf("  r%-2d = %11d (%#x)\n", i, int32(v), v)
			}
		}
	}
	if rep := d.Profile().Report(); rep != "" {
		fmt.Printf("subroutines:\n%s", rep)
	}
	return nil
}
