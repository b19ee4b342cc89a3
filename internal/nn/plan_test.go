package nn_test

import (
	"hash/fnv"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/nn"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// planNet is one of the three networks the plan tests walk, with its
// input edge.
type planNet struct {
	net  *nn.Network
	size int
}

// planNets are array_yolo's graph and the two lite networks of rows_zoo.
func planNets(t *testing.T) map[string]planNet {
	t.Helper()
	y, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]planNet{
		"yolo":    {y.Network, y.Cfg.InputSize},
		"alexnet": {a.Network, a.Cfg.InputSize},
		"resnet":  {r.Network, r.Cfg.InputSize},
	}
}

// TestPlanSlots checks slot sizes, live ranges and first-fit offsets
// against values worked out by hand from the layer lists.
func TestPlanSlots(t *testing.T) {
	nets := planNets(t)
	for _, tc := range []struct {
		net                     string
		layer, off, elems, last int
	}{
		// yolo: conv 0 is 2×32×32, read by conv 1 alone; conv 1 (stride
		// 2, 2×16×16) sits above it and lives to the shortcut at 4
		// (From -3); that shortcut reuses offset 0, free since conv 2
		// (0..512, read by 3) died.
		{"yolo", 0, 0, 2048, 1},
		{"yolo", 1, 2048, 512, 4},
		{"yolo", 4, 0, 512, 5},
		// alexnet: conv 0 is 12×15×15; fc 8 (512 units) must clear
		// maxpool 7 (32 at 288, its input); fc 10, the output, takes
		// offset 0 beside fc 9 and lives to the last layer.
		{"alexnet", 0, 0, 2700, 1},
		{"alexnet", 8, 320, 512, 9},
		{"alexnet", 10, 0, 10, 10},
		// resnet: maxpool 1 (4×16×16, above conv 0's 4096) is block 2's
		// residual through BlockEnd 5; projecting BlockStart 10's slot
		// is its 8×8×8 residual, read by BlockEnd 13; fc 35 is the
		// output.
		{"resnet", 1, 4096, 1024, 5},
		{"resnet", 10, 0, 512, 13},
		{"resnet", 35, 0, 10, 35},
	} {
		off, elems, last := nets[tc.net].net.PlanSlot(tc.layer)
		if off != tc.off || elems != tc.elems || last != tc.last {
			t.Errorf("%s layer %d: off %d elems %d last %d, want %d %d %d",
				tc.net, tc.layer, off, elems, last, tc.off, tc.elems, tc.last)
		}
	}
	// Heads and non-projecting BlockStarts pass their input through.
	for _, l := range []struct {
		net   string
		layer int
	}{{"yolo", 82}, {"resnet", 2}} {
		if _, elems, _ := nets[l.net].net.PlanSlot(l.layer); elems != 0 {
			t.Errorf("%s layer %d has a %d-element slot", l.net, l.layer, elems)
		}
	}
	// array_yolo's graph: 8,294 slot elements, a peak live set of 2,560,
	// which first-fit attains.
	if got := nets["yolo"].net.SlabElems(); got != 2560 {
		t.Errorf("yolo slab %d elements, want 2560", got)
	}
}

// TestPlanNoLiveOverlap: two slots whose live ranges overlap never share
// an element, every slot fits its slab, and a head's input and the final
// output live to the last layer.
func TestPlanNoLiveOverlap(t *testing.T) {
	for name, pn := range planNets(t) {
		n, end := pn.net, len(pn.net.Defs)-1
		for i := range n.Defs {
			off, elems, last := n.PlanSlot(i)
			if elems == 0 {
				continue
			}
			if c, h, w := n.Shape(i); n.Defs[i].Kind != nn.BlockStart && elems != c*h*w {
				t.Errorf("%s layer %d: %d elements for a %dx%dx%d output", name, i, elems, c, h, w)
			}
			if last < i || off+elems > n.SlabElems() {
				t.Errorf("%s layer %d: slot %d+%d live to %d, slab %d", name, i, off, elems, last, n.SlabElems())
			}
			for j := i + 1; j <= last; j++ {
				if o, oe, _ := n.PlanSlot(j); oe > 0 && off < o+oe && o < off+elems {
					t.Errorf("%s: layer %d's slot %d+%d (live to %d) overlaps layer %d's %d+%d",
						name, i, off, elems, last, j, o, oe)
				}
			}
		}
		for i, l := range n.Defs {
			src := i
			if l.Kind == nn.Head {
				src = i - 1 // in all three graphs a head reads the layer before it
			} else if i != end {
				continue
			}
			if _, _, last := n.PlanSlot(src); last != end {
				t.Errorf("%s layer %d: its input (layer %d) lives to %d, want %d", name, i, src, last, end)
			}
		}
	}
}

// TestReferenceOutputsPinned pins the host reference's Out and Heads
// (FNV-64a over their int16s) for one image per network. The reference
// shares the plan with the DPU paths it is the oracle for, so a plan
// that lets a live activation be overwritten would corrupt both alike;
// these digests, read before activations had a plan, catch it.
func TestReferenceOutputsPinned(t *testing.T) {
	want := map[string]uint64{"yolo": 0x78e1b3d374008ba1, "alexnet": 0x78ef7b275c2fd4fe, "resnet": 0xf02a07f6aa59c20c}
	for name, pn := range planNets(t) {
		out, _, err := pn.net.Forward(tensor.Random(pn.size, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, o := range append([]*tensor.Tensor{out.Out}, out.Heads...) {
			for _, v := range o.Data {
				h.Write([]byte{byte(v), byte(v >> 8)})
			}
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: reference outputs digest %#x, want %#x", name, got, want[name])
		}
	}
}
