// Package trace provides the subroutine-occurrence profiler used
// throughout the simulator.
//
// The thesis profiles DPU applications by counting how many times each
// compiler-inserted subroutine is called (#occ, Fig 3.2) and by measuring
// per-operation cycles via perfcounter (Fig 3.1, Table 3.1). This package
// is the simulator-side equivalent: the DPU cost model records every
// subroutine invocation and its cycle charge here, and the report
// renderers reproduce the thesis's profile listings (Fig 3.2, Fig 4.3).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Profile accumulates per-subroutine occurrence counts and cycle totals.
// It is safe for concurrent use by multiple tasklets/DPUs.
type Profile struct {
	mu     sync.Mutex
	occ    map[string]uint64
	cycles map[string]uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		occ:    make(map[string]uint64),
		cycles: make(map[string]uint64),
	}
}

// RecordN notes n invocations of the named subroutine costing cycles
// each, so profiling cost is independent of the operation count.
func (p *Profile) RecordN(name string, n, cycles uint64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.occ[name] += n
	p.cycles[name] += n * cycles
	p.mu.Unlock()
}

// Occ returns the number of recorded invocations of name.
func (p *Profile) Occ(name string) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.occ[name]
}

// Cycles returns the total cycles recorded against name.
func (p *Profile) Cycles(name string) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cycles[name]
}

// Subroutines returns the distinct subroutine names recorded, sorted.
func (p *Profile) Subroutines() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.occ))
	for n := range p.occ {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FloatSubroutines returns the recorded subroutines that implement
// floating-point operations (the __*sf* family the thesis counts in
// Fig 4.3), sorted.
func (p *Profile) FloatSubroutines() []string {
	var out []string
	for _, n := range p.Subroutines() {
		if strings.Contains(n, "sf") || strings.Contains(n, "df") {
			out = append(out, n)
		}
	}
	return out
}

// Snapshot returns a copy of the occurrence counts.
func (p *Profile) Snapshot() map[string]uint64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.occ))
	for k, v := range p.occ {
		out[k] = v
	}
	return out
}

// Reset clears all recorded data.
func (p *Profile) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.occ = make(map[string]uint64)
	p.cycles = make(map[string]uint64)
	p.mu.Unlock()
}

// DiffRow is one subroutine's change between two profiles.
type DiffRow struct {
	Name         string
	BeforeOcc    uint64
	AfterOcc     uint64
	BeforeCycles uint64
	AfterCycles  uint64
}

// Diff compares two profiles subroutine by subroutine — the Fig 4.3
// before/after-LUT comparison as a first-class operation. Rows are
// sorted by the cycle reduction, largest first.
func Diff(before, after *Profile) []DiffRow {
	names := map[string]bool{}
	for _, n := range before.Subroutines() {
		names[n] = true
	}
	for _, n := range after.Subroutines() {
		names[n] = true
	}
	rows := make([]DiffRow, 0, len(names))
	for n := range names {
		rows = append(rows, DiffRow{
			Name:         n,
			BeforeOcc:    before.Occ(n),
			AfterOcc:     after.Occ(n),
			BeforeCycles: before.Cycles(n),
			AfterCycles:  after.Cycles(n),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		di := int64(rows[i].BeforeCycles) - int64(rows[i].AfterCycles)
		dj := int64(rows[j].BeforeCycles) - int64(rows[j].AfterCycles)
		if di != dj {
			return di > dj
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// FormatDiff renders a diff as a before/after table.
func FormatDiff(rows []DiffRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %12s %12s\n",
		"subroutine", "occ before", "occ after", "cyc before", "cyc after")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d %12d %12d\n",
			r.Name, r.BeforeOcc, r.AfterOcc, r.BeforeCycles, r.AfterCycles)
	}
	return b.String()
}

// Report renders the profile in the style of the thesis's DPU profiling
// output (Fig 3.2): one line per subroutine with its #occ count and the
// total cycles it consumed, sorted by descending cycle cost.
func (p *Profile) Report() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	type row struct {
		name   string
		occ    uint64
		cycles uint64
	}
	rows := make([]row, 0, len(p.occ))
	for n, o := range p.occ {
		rows = append(rows, row{name: n, occ: o, cycles: p.cycles[n]})
	}
	p.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].name < rows[j].name
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %14s\n", "subroutine", "#occ", "cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %14d\n", r.name, r.occ, r.cycles)
	}
	return b.String()
}
