package dpu

import "fmt"

// IRAM access. The instruction RAM holds the DPU program (24 KB,
// Table 2.1). The host loads compiled programs here; the ISA interpreter
// in internal/isa fetches from it. Instruction fetch is overlapped by the
// pipeline, so reads charge no cycles.

// ensureIRAM lazily materializes the IRAM backing store.
func (d *DPU) ensureIRAM() {
	if d.iram == nil {
		d.iram = make([]byte, d.cfg.IRAMSize)
	}
}

// LoadIRAM writes a program image into IRAM at offset 0, replacing any
// previous program. It fails if the image exceeds the IRAM capacity —
// the program-size limit real DPU programs must fit.
func (d *DPU) LoadIRAM(image []byte) error {
	if len(image) > d.cfg.IRAMSize {
		return fmt.Errorf("dpu: program image %d bytes exceeds IRAM size %d", len(image), d.cfg.IRAMSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIRAM()
	for i := range d.iram {
		d.iram[i] = 0
	}
	copy(d.iram, image)
	return nil
}

// ReadIRAM returns n bytes of IRAM starting at off.
func (d *DPU) ReadIRAM(off, n int) ([]byte, error) {
	if off < 0 || off+n > d.cfg.IRAMSize {
		return nil, fmt.Errorf("dpu: IRAM read [%d, %d) outside [0, %d)", off, off+n, d.cfg.IRAMSize)
	}
	out := make([]byte, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIRAM()
	copy(out, d.iram[off:])
	return out, nil
}
