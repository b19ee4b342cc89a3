package dpu

import (
	"reflect"
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

// TestChargeLaunchEquivalence: tasklet 0 charging the whole launch is
// indistinguishable, in every launch statistic and in the subroutine
// profile, from each tasklet charging its own block — the invariant the
// gemm block kernels' one-charge-per-launch accounting rests on.
func TestChargeLaunchEquivalence(t *testing.T) {
	const tasklets = 11
	blocks := make([]CostBlock, tasklets)
	for i := range blocks {
		// Uneven shares, an idle tasklet, float and integer subroutines.
		n := uint64(i % 4 * 7)
		blocks[i].AddOp(OpLoad, 3+n).AddOp(OpMul16, n).AddOp(OpFAdd, n/2).AddOp(OpDivInt, uint64(i%2))
		blocks[i].AddDMA(n, 64).AddDMA(1, 2048)
	}
	sum := SumBlocks(blocks)
	for _, opt := range []OptLevel{O0, O1, O2, O3} {
		each := MustNew(DefaultConfig(opt))
		want, err := each.Launch(tasklets, func(tk *Tasklet) error {
			tk.ChargeBlock(&blocks[tk.ID()])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		once := MustNew(DefaultConfig(opt))
		got, err := once.Launch(tasklets, func(tk *Tasklet) error {
			if tk.ID() == 0 {
				tk.ChargeLaunch(blocks, sum)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: launch statistics differ:\nChargeLaunch: %+v\nChargeBlock:  %+v", opt, got, want)
		}
		if g, w := once.Profile().Snapshot(), each.Profile().Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%v: profiles differ:\nChargeLaunch: %v\nChargeBlock:  %v", opt, g, w)
		}
		for _, name := range each.Profile().Subroutines() {
			if g, w := once.Profile().Cycles(name), each.Profile().Cycles(name); g != w {
				t.Errorf("%v: %s: %d profile cycles, want %d", opt, name, g, w)
			}
		}
	}
}
