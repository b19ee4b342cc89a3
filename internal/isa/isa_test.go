package isa

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"pimdnn/internal/dpu"
	"pimdnn/internal/softfloat"
)

func run(t *testing.T, opt dpu.OptLevel, tasklets int, src string, init func(int, *Regs)) map[int]Regs {
	t.Helper()
	d := dpu.MustNew(dpu.DefaultConfig(opt))
	prog := MustAssemble(src)
	if err := Load(d, prog); err != nil {
		t.Fatalf("Load: %v", err)
	}
	out := make(map[int]Regs)
	_, err := d.Launch(tasklets, Kernel(init, func(tid int, r Regs) { out[tid] = r }))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Instruction{
			Op: Opcode(op%uint8(opEnd-1)) + 1,
			Rd: rd % NumRegs, Rs1: rs1 % NumRegs, Rs2: rs2 % NumRegs,
			Imm: imm,
		}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssembleBasicProgram(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		; sum 1..10 into r2
		movi r1, 10
		movi r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, nil)
	if got := regs[0][2]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestFibonacci(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		movi r1, 0      ; fib(0)
		movi r2, 1      ; fib(1)
		movi r3, 20     ; counter
	loop:
		add  r4, r1, r2
		mov  r1, r2
		mov  r2, r4
		addi r3, r3, -1
		bne  r3, r0, loop
		halt
	`, nil)
	if got := regs[0][1]; got != 6765 { // fib(20)
		t.Errorf("fib(20) = %d, want 6765", got)
	}
}

func TestMemoryInstructions(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		movi r1, 0x100
		movi r2, -42
		sb   r2, 0(r1)
		lb   r3, 0(r1)
		movi r4, -30000
		sh   r4, 2(r1)
		lh   r5, 2(r1)
		movi r6, 0x12345678
		sw   r6, 4(r1)
		lw   r7, 4(r1)
		halt
	`, nil)
	r := regs[0]
	if int32(r[3]) != -42 {
		t.Errorf("lb = %d, want -42 (sign extension)", int32(r[3]))
	}
	if int32(r[5]) != -30000 {
		t.Errorf("lh = %d, want -30000", int32(r[5]))
	}
	if r[7] != 0x12345678 {
		t.Errorf("lw = %#x", r[7])
	}
}

func TestALUInstructions(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		movi r1, 12
		movi r2, 10
		sub  r3, r1, r2      ; 2
		and  r4, r1, r2      ; 8
		or   r5, r1, r2      ; 14
		xor  r6, r1, r2      ; 6
		sll  r7, r1, 2       ; 48
		srl  r8, r1, 2       ; 3
		movi r9, -8
		sra  r10, r9, 1      ; -4
		movi r11, 0xFF
		cao  r12, r11        ; 8
		mul  r13, r1, r2     ; 120
		div  r14, r1, r2     ; 1
		rem  r15, r1, r2     ; 2
		mul8 r16, r1, r2     ; 120
		mul16 r17, r1, r2    ; 120
		halt
	`, nil)
	r := regs[0]
	want := map[int]int32{3: 2, 4: 8, 5: 14, 6: 6, 7: 48, 8: 3, 10: -4, 12: 8, 13: 120, 14: 1, 15: 2, 16: 120, 17: 120}
	for reg, w := range want {
		if int32(r[reg]) != w {
			t.Errorf("r%d = %d, want %d", reg, int32(r[reg]), w)
		}
	}
}

func TestFloatInstructions(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		movi r1, 3
		movi r2, 4
		fsi  r3, r1        ; 3.0
		fsi  r4, r2        ; 4.0
		fadd r5, r3, r4    ; 7.0
		fsub r6, r3, r4    ; -1.0
		fmul r7, r3, r4    ; 12.0
		fdiv r8, r7, r4    ; 3.0
		flt  r9, r3, r4    ; 1
		flt  r10, r4, r3   ; 0
		fts  r11, r7       ; 12
		halt
	`, nil)
	r := regs[0]
	if r[5] != softfloat.FromFloat32(7) || r[6] != softfloat.FromFloat32(-1) ||
		r[7] != softfloat.FromFloat32(12) || r[8] != softfloat.FromFloat32(3) {
		t.Errorf("float results wrong: %#x %#x %#x %#x", r[5], r[6], r[7], r[8])
	}
	if r[9] != 1 || r[10] != 0 || r[11] != 12 {
		t.Errorf("flt/fts wrong: %d %d %d", r[9], r[10], r[11])
	}
}

func TestDMAInstructions(t *testing.T) {
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i + 1)
	}
	prog := MustAssemble(`
		movi r1, 0       ; WRAM dst
		movi r2, 512     ; MRAM src
		ldma r1, r2, 64
		lb   r3, 0(r1)   ; first byte
		lb   r4, 63(r1)  ; last byte
		movi r5, 1024    ; MRAM dst
		sdma r1, r5, 64
		halt
	`)
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	var final Regs
	back := make([]byte, 64)
	if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: 512, Buf: src}, Tasklets: 1, Stats: new(dpu.Stats),
		Kernel: Kernel(nil, func(_ int, r Regs) { final = r }), Gather: dpu.Xfer{Kind: dpu.SymbolMRAM, Off: 1024, Buf: back}}); err != nil {
		t.Fatal(err)
	}
	if final[3] != 1 || final[4] != 64 {
		t.Errorf("DMA readback r3=%d r4=%d, want 1, 64", final[3], final[4])
	}
	for i := range back {
		if back[i] != src[i] {
			t.Fatalf("sdma byte %d = %d, want %d", i, back[i], src[i])
		}
	}
}

// TestPerfcounterProgram is the Fig 3.1 microbenchmark as a real program:
// perfcounter around a float multiply.
func TestPerfcounterProgram(t *testing.T) {
	regs := run(t, dpu.O2, 1, `
		movi r1, 3
		fsi  r2, r1
		pcfg
		fmul r3, r2, r2
		pget r4
		halt
	`, nil)
	got := regs[0][4]
	// fmul = 205 slots + pget move (1 slot) at 11 cycles/slot.
	want := uint32((205 + 1) * 11)
	if got != want {
		t.Errorf("perfcounter = %d, want %d", got, want)
	}
}

func TestTaskletIDInstruction(t *testing.T) {
	regs := run(t, dpu.O2, 4, `
		tid  r1
		sll  r2, r1, 3
		halt
	`, nil)
	for tid := 0; tid < 4; tid++ {
		if got := regs[tid][1]; got != uint32(tid) {
			t.Errorf("tasklet %d saw tid %d", tid, got)
		}
		if got := regs[tid][2]; got != uint32(tid*8) {
			t.Errorf("tasklet %d computed %d, want %d", tid, got, tid*8)
		}
	}
}

func TestInitSeedsRegisters(t *testing.T) {
	regs := run(t, dpu.O2, 2, `
		addi r2, r1, 100
		halt
	`, func(tid int, r *Regs) { r[1] = uint32(tid * 1000) })
	if regs[0][2] != 100 || regs[1][2] != 1100 {
		t.Errorf("seeded results: %d, %d", regs[0][2], regs[1][2])
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",     // unknown mnemonic
		"movi r99, 1",           // bad register
		"movi r1",               // missing operand
		"add r1, r2",            // wrong arity
		"beq r1, r2, nowhere",   // undefined label
		"lw r1, r2",             // bad memory operand
		"movi r1, zzz",          // bad immediate
		"dup: nop\ndup: nop",    // duplicate label
		"1bad: nop",             // bad label identifier
		"movi r1, 999999999999", // immediate out of range
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
	start:
		movi r1, 10
		lw   r2, 4(r3)
		sw   r2, 8(r3)
		add  r4, r1, r2
		addi r5, r4, -3
		fadd r6, r4, r5
		flt  r7, r6, r4
		j    start
	`
	p1 := MustAssemble(src)
	text := Disassemble(p1)
	p2, err := Assemble(strings.ReplaceAll(text, "j 0", "j start"))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if len(p1.Ins) != len(p2.Ins) {
		t.Fatalf("instruction counts differ: %d vs %d", len(p1.Ins), len(p2.Ins))
	}
	for i := range p1.Ins {
		if p1.Ins[i] != p2.Ins[i] {
			t.Errorf("instruction %d: %+v vs %+v", i, p1.Ins[i], p2.Ins[i])
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := MustAssemble(`
		movi r1, 42
		addi r2, r1, 1
		halt
	`)
	img := p.Image()
	p2, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Ins) != 3 {
		t.Fatalf("FromImage len = %d", len(p2.Ins))
	}
	for i := range p.Ins {
		if p.Ins[i] != p2.Ins[i] {
			t.Errorf("instruction %d mismatch", i)
		}
	}
	if _, err := FromImage(img[:5]); err == nil {
		t.Error("ragged image accepted")
	}
}

func TestProgramTooBigForIRAM(t *testing.T) {
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	// 24KB IRAM / 8 bytes = 3072 instructions max.
	big := Program{Labels: map[string]int{}}
	for i := 0; i < 4000; i++ {
		big.Ins = append(big.Ins, Instruction{Op: OpNOP})
	}
	if err := Load(d, big); err == nil {
		t.Error("oversized program loaded")
	}
}

func TestRunawayProgramGuard(t *testing.T) {
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	prog := MustAssemble(`
	spin:
		j spin
	`)
	if err := Load(d, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(1, Kernel(nil, nil)); err == nil {
		t.Error("infinite loop not caught")
	}
}

func TestInterpreterFaults(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"wram oob", "movi r1, 0x10000\nlw r2, 0(r1)\nhalt"},
		{"div zero", "movi r1, 1\ndiv r2, r1, r0\nhalt"},
		{"dma misaligned", "movi r1, 0\nmovi r2, 4\nldma r1, r2, 8\nhalt"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
			if err := Load(d, MustAssemble(tt.src)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Launch(1, Kernel(nil, nil)); err == nil {
				t.Error("fault not reported")
			}
		})
	}
}

// TestExecRejectsInvalidInstruction: a hand-built program whose register
// field is outside the file never went through Load or FromImage, so
// Exec is the only place left to refuse it — with an error from Launch,
// not an index panic that takes the process down.
func TestExecRejectsInvalidInstruction(t *testing.T) {
	for _, in := range []Instruction{
		{Op: OpMOVI, Rd: 200},
		{Op: OpADD, Rd: 1, Rs1: NumRegs},
		{Op: OpSW, Rs2: 255},
		{Op: opEnd},
	} {
		prog := Program{Ins: []Instruction{{Op: OpNOP}, in}}
		d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
		_, err := d.Launch(1, func(tk *dpu.Tasklet) error {
			var regs Regs
			return Exec(tk, prog, &regs)
		})
		if err == nil || !strings.Contains(err.Error(), "isa: instruction 1 invalid") {
			t.Errorf("%+v: Launch returned %v, want an invalid-instruction error", in, err)
		}
	}
}

// TestReloadedProgramRuns: a Kernel closure holds no program — it reads
// IRAM on every launch — so the same closure must run a reloaded image.
func TestReloadedProgramRuns(t *testing.T) {
	d := dpu.MustNew(dpu.DefaultConfig(dpu.O2))
	k := Kernel(nil, nil)

	load := func(src string) {
		t.Helper()
		if err := Load(d, MustAssemble(src)); err != nil {
			t.Fatal(err)
		}
	}
	readWord := func(off int) int32 {
		raw := make([]byte, 4)
		if _, err := d.Do(&dpu.Request{Gather: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: int64(off), Buf: raw}}); err != nil {
			t.Fatal(err)
		}
		return int32(binary.LittleEndian.Uint32(raw))
	}

	load(`
		movi r1, 41
		movi r2, 0
		sw   r1, 0(r2)
		halt
	`)
	for i := 0; i < 3; i++ {
		if _, err := d.Launch(2, k); err != nil {
			t.Fatal(err)
		}
	}
	if got := readWord(0); got != 41 {
		t.Fatalf("first program wrote %d, want 41", got)
	}

	load(`
		movi r1, 97
		movi r2, 0
		sw   r1, 0(r2)
		halt
	`)
	if _, err := d.Launch(2, k); err != nil {
		t.Fatal(err)
	}
	if got := readWord(0); got != 97 {
		t.Fatalf("after IRAM reload the first program ran (got %d, want 97)", got)
	}
}

func TestFallOffEndHalts(t *testing.T) {
	regs := run(t, dpu.O2, 1, "movi r1, 7", nil)
	if regs[0][1] != 7 {
		t.Errorf("r1 = %d", regs[0][1])
	}
}

func TestOpcodeString(t *testing.T) {
	if OpFADD.String() != "fadd" {
		t.Error("OpFADD name")
	}
	if !strings.Contains(Opcode(200).String(), "200") {
		t.Error("unknown opcode string")
	}
}
