package dpu

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestOpCountsRecorded(t *testing.T) {
	d := newTestDPU(t, O0)
	st, err := d.Launch(2, func(tk *Tasklet) error {
		tk.Add32(1, 2)
		tk.Mul16(3, 4)
		tk.Load8(0)
		tk.ChargeBulk(OpStore, 10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Op]uint64{
		OpAddInt: 2, // one per tasklet
		OpMul16:  2,
		OpLoad:   2,
		OpStore:  20,
	}
	for op, n := range want {
		if st.OpCounts[op] != n {
			t.Errorf("OpCounts[%v] = %d, want %d", op, st.OpCounts[op], n)
		}
	}
}

// TestChargeBulkEquivalence: bulk charging is exactly n individual
// charges, for every op class and optimization level — the invariant the
// GEMM kernels' accounting rests on.
func TestChargeBulkEquivalence(t *testing.T) {
	ops := []Op{OpLoad, OpStore, OpAddInt, OpMul8, OpMul16, OpMul32,
		OpDivInt, OpFAdd, OpFMul, OpFDiv, OpShift, OpBranch}
	for _, opt := range []OptLevel{O0, O1, O2, O3} {
		for _, op := range ops {
			f := func(nRaw uint16) bool {
				n := uint64(nRaw % 500)
				d1 := MustNew(DefaultConfig(opt))
				var s1 uint64
				if _, err := d1.Launch(1, func(tk *Tasklet) error {
					tk.Charge(op, int(n))
					s1 = tk.IssueSlots()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				d2 := MustNew(DefaultConfig(opt))
				var s2 uint64
				if _, err := d2.Launch(1, func(tk *Tasklet) error {
					tk.ChargeBulk(op, n)
					s2 = tk.IssueSlots()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				// Subroutine occurrence counts must also match.
				return s1 == s2 &&
					profileSum(d1) == profileSum(d2)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
				t.Errorf("%v at %v: %v", op, opt, err)
			}
		}
	}
}

func profileSum(d *DPU) uint64 {
	var total uint64
	for _, name := range d.Profile().Subroutines() {
		total += d.Profile().Occ(name)
	}
	return total
}

// TestCyclesMonotoneInWork: adding operations never reduces the modeled
// cycle count.
func TestCyclesMonotoneInWork(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a, b := uint64(aRaw%2000), uint64(bRaw%2000)
		run := func(n uint64) uint64 {
			d := MustNew(DefaultConfig(O3))
			st, err := d.Launch(4, func(tk *Tasklet) error {
				tk.ChargeBulk(OpAddInt, n)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return st.Cycles
		}
		if a <= b {
			return run(a) <= run(b)
		}
		return run(b) <= run(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// unevenCost is a launch cost function with uneven shares, an idle
// tasklet, float and integer subroutines, scaled by the shape key.
func unevenCost(b *CostBlock, key, i, tasklets int) {
	n := uint64(i % 4 * 7 * key)
	b.AddOp(OpLoad, 3+n).AddOp(OpMul16, n).AddOp(OpFAdd, n/2).AddOp(OpDivInt, uint64(i%2))
	b.AddDMA(n, 64).AddDMA(1, 2048)
}

// TestChargeLaunchEquivalence: a launch charged once by ChargeLaunch is
// indistinguishable, in every launch statistic and in the subroutine
// profile, from each tasklet charging its own block — the invariant the
// block kernels' one-charge-per-launch accounting rests on. The charge
// comes from tasklet 0; from tasklet 2, after tasklets 0 and 1 charged
// ops of their own; and from tasklet 0 after a launch that ran every
// tasklet and one that trapped in tasklet 1 after tasklet 0 charged
// (both DPUs run the two first).
func TestChargeLaunchEquivalence(t *testing.T) {
	const tasklets = 11
	blocks := make([]CostBlock, tasklets)
	for i := range blocks {
		unevenCost(&blocks[i], 1, i, tasklets)
	}
	lc := NewCostCache(unevenCost).Launch(1, tasklets)
	each := func(tk *Tasklet) error { tk.ChargeBlock(&blocks[tk.ID()]); return nil }
	once := func(tk *Tasklet) error { tk.ChargeLaunch(lc); return nil }
	// own charges ops of tasklets 0 and 1's own, then runs k on tasklet
	// 2 and up, or on all of them.
	own := func(k KernelFunc, all bool) KernelFunc {
		return func(tk *Tasklet) error {
			if tk.ID() < 2 {
				tk.ChargeBulk(OpFMul, uint64(3+tk.ID()))
				tk.ChargeDMA(2, 64)
				if !all {
					return nil
				}
			}
			return k(tk)
		}
	}
	trap := func(tk *Tasklet) error {
		if tk.ID() == 1 {
			tk.Load8(-1)
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		pre       []KernelFunc
		want, got KernelFunc
	}{
		{"tasklet 0", nil, each, once},
		{"tasklet 2 after own ops", nil, own(each, true), own(once, false)},
		{"after a trapped launch", []KernelFunc{each, own(trap, true)}, each, once},
	} {
		for _, opt := range []OptLevel{O0, O1, O2, O3} {
			launch := func(k KernelFunc) (*DPU, Stats) {
				d := MustNew(DefaultConfig(opt))
				for _, p := range c.pre {
					d.Launch(tasklets, p) // the trapping one fails
				}
				st, err := d.Launch(tasklets, k)
				if err != nil {
					t.Fatal(err)
				}
				return d, st
			}
			dw, want := launch(c.want)
			dg, got := launch(c.got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %v: launch statistics differ:\nChargeLaunch: %+v\nChargeBlock:  %+v", c.name, opt, got, want)
			}
			if g, w := dg.Profile().Snapshot(), dw.Profile().Snapshot(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s, %v: profiles differ:\nChargeLaunch: %v\nChargeBlock:  %v", c.name, opt, g, w)
			}
			for _, name := range dw.Profile().Subroutines() {
				if g, w := dg.Profile().Cycles(name), dw.Profile().Cycles(name); g != w {
					t.Errorf("%s, %v: %s: %d profile cycles, want %d", c.name, opt, name, g, w)
				}
			}
		}
	}
}

// TestCostCache: concurrent lookups of one shape all get its launch cost
// as a fresh cache builds it, distinct shapes and tasklet counts keep
// distinct entries, and a repeated lookup neither reruns the cost
// function nor allocates.
func TestCostCache(t *testing.T) {
	var calls atomic.Int64
	c := NewCostCache(func(b *CostBlock, key, i, tasklets int) {
		calls.Add(1)
		unevenCost(b, key, i, tasklets)
	})
	want := NewCostCache(unevenCost).Launch(2, 11)
	got := make([]*LaunchCost, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.Launch(2, 11)
		}()
	}
	wg.Wait()
	for g, lc := range got {
		if !reflect.DeepEqual(lc, want) {
			t.Errorf("lookup %d: %+v, fresh build %+v", g, lc, want)
		}
	}

	first := map[[2]int]*LaunchCost{}
	for _, k := range [][2]int{{1, 11}, {3, 11}, {3, 5}, {2, 11}} {
		first[k] = c.Launch(k[0], k[1])
	}
	for k, lc := range first {
		if len(lc.blocks) != k[1] {
			t.Errorf("%v: %d blocks", k, len(lc.blocks))
		}
		if fresh := NewCostCache(unevenCost).Launch(k[0], k[1]); !reflect.DeepEqual(lc, fresh) {
			t.Errorf("%v: %+v, fresh build %+v", k, lc, fresh)
		}
		for k2, lc2 := range first {
			if k2 != k && reflect.DeepEqual(lc, lc2) {
				t.Errorf("%v and %v share an entry", k, k2)
			}
		}
	}

	n := calls.Load()
	for k, lc := range first {
		if again := c.Launch(k[0], k[1]); !reflect.DeepEqual(again, lc) {
			t.Errorf("%v: second lookup %+v, first %+v", k, again, lc)
		}
	}
	if got := calls.Load(); got != n {
		t.Errorf("second lookups ran the cost function %d more times", got-n)
	}
	if a := testing.AllocsPerRun(100, func() { c.Launch(3, 5) }); a != 0 {
		t.Errorf("a hit allocates %v times", a)
	}
}
