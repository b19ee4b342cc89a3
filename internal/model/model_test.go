package model

import (
	"math"
	"strings"
	"testing"
)

// approx asserts relative agreement to the printed precision of the
// thesis's tables (3 significant figures).
func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
		return
	}
	if r := math.Abs(got-want) / math.Abs(want); r > tol {
		t.Errorf("%s = %.6g, want %.6g (rel err %.3g > %.3g)", name, got, want, r, tol)
	}
}

// TestTable51 reproduces every computed row of Table 5.1.
func TestTable51(t *testing.T) {
	rows := Table51()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table51Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	p := byName["pPIM"]
	if p.Dp != 1 || p.CBB != 1 || p.AccumF != 2 || p.MultF != 6 || p.Cop != 8 {
		t.Errorf("pPIM params: %+v", p)
	}
	approx(t, "pPIM Tcomp(1 MAC)", p.TcompOneMAC, 6.40e-9, 0.005)
	approx(t, "pPIM Ccomp(TOPs)", p.CcompTOPs, 8.0938e7, 0.001)
	approx(t, "pPIM Tcomp(TOPs)", p.TcompTOPs, 6.48e-2, 0.005)

	d := byName["DRISA"]
	if d.Dp != 1 || d.AccumF != 11 || d.MultF != 200 || d.Cop != 211 {
		t.Errorf("DRISA params: %+v", d)
	}
	approx(t, "DRISA Ccomp(TOPs)", d.CcompTOPs, 1.6678e7, 0.001)
	approx(t, "DRISA Tcomp(TOPs)", d.TcompTOPs, 1.40e-1, 0.005)

	u := byName["UPMEM"]
	if u.Dp != 11 || u.AccumF != 4 || u.MultF != 4 || u.Cop != 88 {
		t.Errorf("UPMEM params: %+v", u)
	}
	approx(t, "UPMEM Tcomp(1 MAC)", u.TcompOneMAC, 2.51e-7, 0.005)
	approx(t, "UPMEM Ccomp(TOPs)", u.CcompTOPs, 8.9031e7, 0.001)
	approx(t, "UPMEM Tcomp(TOPs)", u.TcompTOPs, 2.54e-1, 0.005)
}

// TestTable52 reproduces the multiplication Cop table, including the
// starred Algorithm 3 estimates.
func TestTable52(t *testing.T) {
	tab := Table52()
	want := map[string]map[int]float64{
		"pPIM":  {4: 1, 8: 6, 16: 124, 32: 1016},
		"DRISA": {4: 110, 8: 200, 16: 380, 32: 740},
		"UPMEM": {4: 44, 8: 44, 16: 370, 32: 570},
	}
	for name, cols := range want {
		for bits, w := range cols {
			approx(t, name+" mult Cop "+itoa(bits), tab[name][bits], w, 0.001)
		}
	}
}

func itoa(v int) string {
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// TestAlgorithm3 checks the pPIM adds estimate directly: 108 internal
// additions at 16 bits and 952 at 32 (so that +16 and +64 block products
// give the Table 5.2 stars).
func TestAlgorithm3(t *testing.T) {
	if got := PPIMAddsEstimate(16); got != 108 {
		t.Errorf("adds(16) = %d, want 108", got)
	}
	if got := PPIMAddsEstimate(32); got != 952 {
		t.Errorf("adds(32) = %d, want 952", got)
	}
	if got := PPIMMultEstimate(16); got != 124 {
		t.Errorf("mult(16) = %d, want 124", got)
	}
	if got := PPIMMultEstimate(32); got != 1016 {
		t.Errorf("mult(32) = %d, want 1016", got)
	}
}

// TestFig54Pattern: the adds-without-carry sequence is the tent the
// thesis plots — rises by 2 to the midpoint, falls by 2, and is
// symmetric with zero endpoints.
func TestFig54Pattern(t *testing.T) {
	for _, bits := range []int{8, 16, 32, 64} {
		pat := PPIMAddsPattern(bits)
		k := bits / 2
		if len(pat) != k {
			t.Fatalf("bits=%d: len=%d, want %d", bits, len(pat), k)
		}
		if pat[0] != 0 || pat[k-1] != 0 {
			t.Errorf("bits=%d: endpoints %d, %d, want 0", bits, pat[0], pat[k-1])
		}
		for i := 0; i < k-1; i++ {
			d := pat[i+1] - pat[i]
			if d != 2 && d != -2 && d != 0 {
				t.Errorf("bits=%d: step %d at %d", bits, d, i)
			}
		}
		// Symmetric tent.
		for i := range pat {
			if pat[i] != pat[k-1-i] {
				t.Errorf("bits=%d: pattern not symmetric at %d", bits, i)
			}
		}
	}
}

// TestTable53 reproduces the memory-model analysis.
func TestTable53(t *testing.T) {
	rows := Table53()
	byName := map[string]Table53Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	checks := []struct {
		name              string
		opsPerPE, localOp float64
		tmem, ttot        float64
	}{
		{"pPIM", 16, 4096, 4.24e-3, 6.90e-2},
		{"DRISA", 65536, 2147483648, 1.80e-7, 1.40e-1},
		{"UPMEM", 32000, 81920000, 3.07e-3, 2.57e-1},
	}
	for _, c := range checks {
		r := byName[c.name]
		if r.OpsPerPE != c.opsPerPE {
			t.Errorf("%s OPs/PE = %g, want %g", c.name, r.OpsPerPE, c.opsPerPE)
		}
		if r.LocalOps != c.localOp {
			t.Errorf("%s LocalOps = %g, want %g", c.name, r.LocalOps, c.localOp)
		}
		approx(t, c.name+" Tmem", r.TmemS, c.tmem, 0.005)
		approx(t, c.name+" Ttot", r.TtotS, c.ttot, 0.005)
	}
}

// TestTable54Throughputs reproduces the benchmarking table's derived
// columns from the published latencies and power/area figures.
func TestTable54Throughputs(t *testing.T) {
	devs := Table54Devices()
	if len(devs) != 7 {
		t.Fatalf("devices = %d", len(devs))
	}
	byName := map[string]Device{}
	for _, d := range devs {
		byName[d.Name] = d
	}
	checks := []struct {
		name             string
		ebnnPW, ebnnPA   float64
		yoloPW, yoloPA   float64
		tolEBNN, tolYOLO float64
	}{
		{"UPMEM", 5.63e3, 1.80e2, 1.25e-4, 1.10e-5, 0.005, 0.04},
		{"pPIM", 7.52e5, 1.02e5, 4.20e-1, 5.71e-2, 0.005, 0.005},
		{"DRISA-3T1C", 1.24e4, 1.87e4, 6.94e-3, 1.04e-2, 0.005, 0.005},
		{"DRISA-1T1C-NOR", 5.21e3, 7.83e3, 2.91e-3, 4.37e-3, 0.005, 0.005},
		{"SCOPE-Vanilla", 4.36e5, 2.82e5, 2.43e-1, 1.57e-1, 0.005, 0.005},
		{"SCOPE-H2d", 1.22e5, 7.89e4, 6.82e-2, 4.41e-2, 0.005, 0.005},
		{"LACC", 8.82e5, 8.53e4, 4.91e-1, 4.75e-2, 0.005, 0.005},
	}
	for _, c := range checks {
		d := byName[c.name]
		approx(t, c.name+" eBNN f/s-W", d.EBNNThroughputPower(), c.ebnnPW, c.tolEBNN)
		approx(t, c.name+" eBNN f/s-mm2", d.EBNNThroughputArea(), c.ebnnPA, c.tolEBNN)
		approx(t, c.name+" YOLO f/s-W", d.YOLOThroughputPower(), c.yoloPW, c.tolYOLO)
		approx(t, c.name+" YOLO f/s-mm2", d.YOLOThroughputArea(), c.yoloPA, c.tolYOLO)
	}
}

// TestFig56Crossover reproduces the Fig 5.6 conclusion: pPIM wins 8- and
// 16-bit multiplication, UPMEM wins 32-bit.
func TestFig56Crossover(t *testing.T) {
	pts := Fig56()
	cy := map[string]map[int]float64{}
	for _, p := range pts {
		if cy[p.PIM] == nil {
			cy[p.PIM] = map[int]float64{}
		}
		cy[p.PIM][p.Bits] = p.Cycles
	}
	for _, bits := range []int{8, 16} {
		if !(cy["pPIM"][bits] < cy["DRISA"][bits] && cy["pPIM"][bits] < cy["UPMEM"][bits]) {
			t.Errorf("%d-bit: pPIM should win: %v", bits, cy)
		}
	}
	if !(cy["UPMEM"][32] < cy["pPIM"][32] && cy["UPMEM"][32] < cy["DRISA"][32]) {
		t.Errorf("32-bit: UPMEM should win: pPIM=%g DRISA=%g UPMEM=%g",
			cy["pPIM"][32], cy["DRISA"][32], cy["UPMEM"][32])
	}
}

// TestFig55SweepShapes: the TOPs sweep is a non-decreasing step function
// (the ceil in Eq 5.3); the PE sweep drops steeply then flattens.
func TestFig55SweepShapes(t *testing.T) {
	for _, p := range Architectures() {
		tops := make([]float64, 0, 100)
		for v := 1000.0; v <= 100000; v += 1000 {
			tops = append(tops, v)
		}
		sweep := p.TOPsSweep(8, tops)
		for i := 1; i < len(sweep); i++ {
			if sweep[i].Cycles < sweep[i-1].Cycles {
				t.Errorf("%s: TOPs sweep decreased at %v", p.Name, sweep[i].X)
			}
		}
		pes := []float64{1, 2, 4, 8, 16, 64, 256, 1024, 4096}
		ps := p.PESweep(8, 100000, pes)
		for i := 1; i < len(ps); i++ {
			if ps[i].Cycles > ps[i-1].Cycles {
				t.Errorf("%s: PE sweep increased at %v PEs", p.Name, ps[i].X)
			}
		}
		// Big first drop: doubling PEs from 1 halves the cycles.
		if ps[1].Cycles > ps[0].Cycles*0.51 {
			t.Errorf("%s: first PE doubling only reached %v of serial", p.Name, ps[1].Cycles/ps[0].Cycles)
		}
	}
}

// TestCeilStepFunction: Eq 5.3's ceil makes exact steps at PE multiples.
func TestCeilStepFunction(t *testing.T) {
	p := UPMEM()
	cop := p.MultCop(8)
	if Ccomp(cop, 2560, p.PEs) != cop {
		t.Error("one full wave should cost exactly Cop")
	}
	if Ccomp(cop, 2561, p.PEs) != 2*cop {
		t.Error("one extra operation should start a second wave")
	}
}

// TestOverlapBrackets: the overlapped best case never exceeds the
// worst-case sum and is at least half of it.
func TestOverlapBrackets(t *testing.T) {
	for _, p := range Architectures() {
		worst := p.Ttot(AlexNetTOPs, 8)
		best := p.TtotOverlapped(AlexNetTOPs, 8)
		if best > worst {
			t.Errorf("%s: overlapped %g > worst case %g", p.Name, best, worst)
		}
		if best < worst/2 {
			t.Errorf("%s: overlapped %g < half of worst case %g", p.Name, best, worst)
		}
	}
	// All three §5.2 architectures are compute-dominated on AlexNet, so
	// overlap hides Tmem entirely.
	u := UPMEM()
	if got, want := u.TtotOverlapped(AlexNetTOPs, 8), u.Tcomp(u.MACCop(8), AlexNetTOPs); got != want {
		t.Errorf("UPMEM overlapped = %g, want Tcomp %g", got, want)
	}
}

func TestGranularityString(t *testing.T) {
	if Bitwise.String() != "bitwise" || LUT.String() != "LUT" || PipelinedCPU.String() != "pipelined-CPU" {
		t.Error("granularity names")
	}
	if !strings.Contains(Granularity(9).String(), "?") {
		t.Error("unknown granularity")
	}
}

func TestCPUBaseline(t *testing.T) {
	c := Xeon()
	if got := c.Seconds(1e10); math.Abs(got-1) > 1e-9 {
		t.Errorf("Seconds(1e10) = %v, want 1", got)
	}
	if got := c.Throughput(1e10); math.Abs(got-1) > 1e-9 {
		t.Errorf("Throughput = %v", got)
	}
}

// TestSpeedupSeriesLinear reproduces the Fig 4.7(c) shape: the DPU-system
// speedup over the CPU grows linearly with the DPU count, maximal at the
// full 2,560-DPU system.
func TestSpeedupSeriesLinear(t *testing.T) {
	c := Xeon()
	counts := []int{1, 2, 4, 512, 2560}
	s := c.SpeedupSeries(1.48e-3, 1e5, counts)
	base := s[0].Cycles
	for i, pt := range s {
		want := base * float64(counts[i])
		if math.Abs(pt.Cycles-want)/want > 1e-9 {
			t.Errorf("speedup(%d DPUs) = %v, want %v (linear)", counts[i], pt.Cycles, want)
		}
	}
	if s[len(s)-1].Cycles <= s[0].Cycles {
		t.Error("maximum speedup should be at the full system")
	}
}

func TestFormatters(t *testing.T) {
	s51 := FormatTable51(Table51())
	for _, want := range []string{"pPIM", "DRISA", "UPMEM", "Cop", "Tcomp (TOPs) (s)"} {
		if !strings.Contains(s51, want) {
			t.Errorf("Table 5.1 render missing %q", want)
		}
	}
	s54 := FormatTable54(Table54Devices())
	for _, want := range []string{"UPMEM", "SCOPE-H2d", "LACC", "YOLO f/s-W"} {
		if !strings.Contains(s54, want) {
			t.Errorf("Table 5.4 render missing %q", want)
		}
	}
}

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(v[i]-want[i])/want[i] > 1e-9 {
			t.Errorf("LogSpace[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	if got := LogSpace(5, 1, 3); len(got) != 1 {
		t.Error("invalid range should degrade to single point")
	}
}
