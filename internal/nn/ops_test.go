package nn

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pimdnn/internal/tensor"
)

func TestMaxPool(t *testing.T) {
	in := tensor.New(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = int16(i)
	}
	out := tensor.New(1, 1, 1) // (4-3)/2+1 = 1
	maxPool(out, in, 3, 2, 0)
	if out.At(0, 0, 0) != 10 { // max of the 3x3 window = index 10
		t.Errorf("pool max = %d, want 10", out.At(0, 0, 0))
	}
	// 2x2 stride 2 over the same input.
	out = tensor.New(1, 2, 2)
	maxPool(out, in, 2, 2, 0)
	if want := []int16{5, 7, 13, 15}; !slices.Equal(out.Data, want) {
		t.Errorf("pool = %v, want %v", out.Data, want)
	}
}

func TestMaxPoolPad(t *testing.T) {
	in := tensor.New(1, 2, 2)
	in.Data = []int16{-5, -3, -8, -1}
	// 3x3 pool, stride 2, pad 1 over 2x2: one output = max of all (pads
	// never win, even with all-negative inputs).
	out := tensor.New(1, 1, 1)
	maxPool(out, in, 3, 2, 1)
	if out.At(0, 0, 0) != -1 {
		t.Errorf("pool = %+v", out)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.New(2, 2, 2)
	in.Data = []int16{1, 2, 3, 4, -8, -8, -8, -8}
	out := tensor.New(2, 1, 1)
	globalAvgPool(out, in)
	if out.At(0, 0, 0) != 2 { // (1+2+3+4)/4 = 2 (trunc)
		t.Errorf("avg ch0 = %d", out.At(0, 0, 0))
	}
	if out.At(1, 0, 0) != -8 {
		t.Errorf("avg ch1 = %d", out.At(1, 0, 0))
	}
}

func TestUpsample(t *testing.T) {
	in := tensor.New(1, 2, 2)
	in.Data = []int16{1, 2, 3, 4}
	out := tensor.New(1, 4, 4)
	upsample(out, in, 2)
	want := []int16{1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}
	if !slices.Equal(out.Data, want) {
		t.Fatalf("upsample = %v, want %v", out.Data, want)
	}
}

// TestRouteConcat: a Route concatenates its sources along channels, in
// its list's order (relative and absolute references alike) — here the
// input doubled by a Shortcut, then the input as an Upsample copied it.
func TestRouteConcat(t *testing.T) {
	n, err := New(1, 2, 2, []Layer{
		{Kind: Upsample, Stride: 1},
		{Kind: Shortcut, From: -1},
		{Kind: Route, Layers: []int{-1, 0}},
	}, 1, "l%d")
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 2, 2)
	in.Data = []int16{1, 2, 3, 4}
	out, _, err := n.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int16{2, 4, 6, 8, 1, 2, 3, 4}; out.Out.C != 2 || !slices.Equal(out.Out.Data, want) {
		t.Errorf("route = %dx%dx%d %v, want 2x2x2 %v", out.Out.C, out.Out.H, out.Out.W, out.Out.Data, want)
	}
}

func TestShortcutSaturates(t *testing.T) {
	a := tensor.New(1, 1, 2)
	b := tensor.New(1, 1, 2)
	a.Data = []int16{32000, -32000}
	b.Data = []int16{32000, -32000}
	out := tensor.New(1, 1, 2)
	addSat(out, a, b, false)
	if out.Data[0] != 32767 || out.Data[1] != -32768 {
		t.Errorf("shortcut = %v, want saturated", out.Data)
	}
	if a.Data[0] != 32000 {
		t.Error("shortcut overwrote its input (an earlier layer's output)")
	}
}

// TestResidualAdd: a BlockEnd is the same saturating add with the
// post-add ReLU.
func TestResidualAdd(t *testing.T) {
	a := tensor.New(1, 1, 3)
	b := tensor.New(1, 1, 3)
	a.Data = []int16{32000, -5, 7}
	b.Data = []int16{32000, 2, -3}
	out := tensor.New(1, 1, 3)
	if addSat(out, a, b, true); !slices.Equal(out.Data, []int16{32767, 0, 4}) {
		t.Errorf("residual add = %v, want [32767 0 4]", out.Data)
	}
}

func TestBiasAct(t *testing.T) {
	for _, tc := range []struct {
		act  Activation
		want []int16
	}{
		// Row 0 adds 1 (32767 saturates), row 1 adds -20.
		{Linear, []int16{-15, 32767, -10, -20}},
		{ReLU, []int16{0, 32767, 0, 0}},
		{Leaky, []int16{-2, 32767, -2, -3}}, // arithmetic >>3 rounds down
	} {
		c := []int16{-16, 32767, 10, 0}
		biasAct(c, 2, 2, []int16{1, -20}, tc.act)
		if !slices.Equal(c, tc.want) {
			t.Errorf("activation %d: %v, want %v", tc.act, c, tc.want)
		}
	}
}

func TestSqrtFloat(t *testing.T) {
	for _, x := range []float64{1, 2, 9, 100, 576} {
		if got := sqrt(x); math.Abs(got-math.Sqrt(x)) > 1e-9 {
			t.Errorf("sqrt(%v) = %v", x, got)
		}
	}
	if sqrt(0) != 0 || sqrt(-1) != 0 {
		t.Error("sqrt edge cases")
	}
}

func TestKindString(t *testing.T) {
	seen := map[string]bool{}
	for k := Conv; k <= Head; k++ {
		s := k.String()
		if s == "layer?" || seen[s] {
			t.Errorf("kind %d: name %q missing or duplicate", k, s)
		}
		seen[s] = true
	}
	if Kind(0).String() != "layer?" {
		t.Error("zero kind has a name")
	}
}

// TestGraphValidation: New rejects every malformed graph with an error.
func TestGraphValidation(t *testing.T) {
	conv := Layer{Kind: Conv, Filters: 2, Size: 3, Stride: 1, Pad: 1}
	for name, layers := range map[string][]Layer{
		"unknown kind":        {{Kind: Kind(99)}},
		"kernel > input":      {{Kind: Conv, Filters: 2, Size: 9, Stride: 1}},
		"zero stride":         {{Kind: Conv, Filters: 2, Size: 3, Pad: 1}},
		"zero filters":        {{Kind: FC}},
		"pool > input":        {{Kind: MaxPool, Size: 9, Stride: 2}},
		"shortcut to self":    {conv, {Kind: Shortcut}},
		"shortcut out of net": {conv, {Kind: Shortcut, From: -5}},
		"shortcut shape":      {conv, {Kind: Conv, Filters: 3, Size: 1, Stride: 1}, {Kind: Shortcut, From: -2}},
		"route forward":       {conv, {Kind: Route, Layers: []int{3}}},
		"route empty":         {conv, {Kind: Route}},
		"route spatial":       {conv, {Kind: MaxPool, Size: 2, Stride: 2}, {Kind: Route, Layers: []int{0, 1}}},
		"upsample zero":       {{Kind: Upsample}},
		"block end alone":     {conv, {Kind: BlockEnd}},
		"residual shape":      {{Kind: BlockStart}, {Kind: Conv, Filters: 2, Size: 3, Stride: 2, Pad: 1}, {Kind: BlockEnd}},
	} {
		if _, err := New(3, 8, 8, layers, 1, "l%d"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(3, 8, 4, []Layer{{Kind: FC, Filters: 2}}, 1, "l%d"); err == nil {
		t.Error("non-square FC input accepted")
	}
	if _, err := New(0, 8, 8, []Layer{conv}, 1, "l%d"); err == nil {
		t.Error("zero-channel input accepted")
	}
}

// TestNewRejectsOversizedActivations: a graph whose layer output or
// per-image activation slab exceeds maxElems fails in New, naming the
// layer, instead of running out of memory or overflowing the element
// count in Forward.
func TestNewRejectsOversizedActivations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		c, h, w int
		layers  []Layer
		layer   string
	}{
		// 1×65,536×65,536: 2³² elements.
		{"upsample output", 1, 1, 1, []Layer{{Kind: Upsample, Stride: 1 << 16}}, "layer 0:"},
		// Each factor alone overflows the element count.
		{"upsample overflow", 1, 1, 1, []Layer{{Kind: Upsample, Stride: 1 << 30}, {Kind: Upsample, Stride: 1 << 30}}, "layer 0:"},
		// Three live 2²⁸-element outputs: each fits, the slab does not.
		{"slab", 1, 1 << 14, 1 << 14, []Layer{{Kind: Upsample, Stride: 1}, {Kind: Upsample, Stride: 1}, {Kind: Shortcut, From: -2}}, "layer 2:"},
	} {
		_, err := New(tc.c, tc.h, tc.w, tc.layers, 1, "l%d")
		if err == nil || !strings.Contains(err.Error(), tc.layer) {
			t.Errorf("%s: New returned %v, want an error naming %q", tc.name, err, tc.layer)
		}
	}
}
