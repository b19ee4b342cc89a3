package dpu

import "fmt"

// IRAM access. The instruction RAM holds the DPU program (24 KB,
// Table 2.1). The host loads compiled programs here; the ISA interpreter
// in internal/isa fetches from it. Instruction fetch is overlapped by the
// pipeline, so reads charge no cycles.

// LoadIRAM writes a program image into IRAM at offset 0, replacing any
// previous program. It fails if the image exceeds the IRAM capacity —
// the program-size limit real DPU programs must fit.
func (d *DPU) LoadIRAM(image []byte) error {
	if len(image) > d.cfg.IRAMSize {
		return fmt.Errorf("dpu: program image %d bytes exceeds IRAM size %d", len(image), d.cfg.IRAMSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.iram == nil {
		d.iram = make([]byte, d.cfg.IRAMSize)
	}
	clear(d.iram)
	copy(d.iram, image)
	return nil
}

// IRAM returns the DPU's instruction RAM, nil before the first LoadIRAM
// (which reads as an empty program). The view aliases live IRAM: the
// kernel must not write it, and it is valid only inside the current
// launch, during which no LoadIRAM can run.
func (t *Tasklet) IRAM() []byte { return t.dpu.iram }
