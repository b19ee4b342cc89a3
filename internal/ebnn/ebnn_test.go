package ebnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pimdnn/internal/mnist"
)

// trained is a model with the dataset it was trained on.
type trained struct {
	m  *Model
	ds mnist.Dataset
}

// trainOnce memoizes a default-config training for the given epochs on
// mnist.Load(train, test, seed): Train is deterministic and no test
// mutates a trained model or its dataset, so the tests that share one
// train it once per test binary.
func trainOnce(train, test int, seed int64, epochs int) func(*testing.T) (*Model, mnist.Dataset) {
	once := sync.OnceValues(func() (trained, error) {
		ds := mnist.Load(train, test, seed)
		cfg := DefaultTrainConfig()
		cfg.Epochs = epochs
		m, err := Train(ds, cfg)
		return trained{m, ds}, err
	})
	return func(t *testing.T) (*Model, mnist.Dataset) {
		t.Helper()
		tr, err := once()
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		return tr.m, tr.ds
	}
}

var trainSmall = trainOnce(500, 100, 11, DefaultTrainConfig().Epochs)

func TestTrainValidation(t *testing.T) {
	ds := mnist.Load(10, 5, 1)
	bad := []TrainConfig{
		{Filters: 0, Epochs: 1, LearningRate: 0.1},
		{Filters: 20, Epochs: 1, LearningRate: 0.1},
		{Filters: 8, Epochs: 0, LearningRate: 0.1},
		{Filters: 8, Epochs: 1, LearningRate: 0},
	}
	for i, cfg := range bad {
		if _, err := Train(ds, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Train(mnist.Dataset{}, DefaultTrainConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestTrainBitIdentical pins the trained readout: FNV-64a over the
// little-endian float32 bits of Weights, then Bias. Any change to the
// order or set of float32 operations in Train moves these hashes.
func TestTrainBitIdentical(t *testing.T) {
	for _, tt := range []struct {
		seed int64
		want uint64
	}{
		{1, 0x6ff9fa08ecdcd794}, {2, 0x36edbf1258fc1504}, {7, 0xbcd3ecd14f1be9a3},
	} {
		m, err := Train(mnist.Load(400, 256, tt.seed), DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var w [4]byte
		put := func(v float32) {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
			h.Write(w[:])
		}
		for _, row := range m.Weights {
			for _, v := range row {
				put(v)
			}
		}
		for _, v := range m.Bias {
			put(v)
		}
		if got := h.Sum64(); got != tt.want {
			t.Errorf("seed %d: model hash %016x, want %016x", tt.seed, got, tt.want)
		}
	}
}

func TestTrainProducesDistinctFilters(t *testing.T) {
	m, _ := trainSmall(t)
	seen := map[uint16]bool{}
	for _, f := range m.Filters {
		if f == 0 || f == 0x1FF {
			t.Errorf("degenerate filter %#x", f)
		}
		if seen[f] {
			t.Errorf("duplicate filter %#x", f)
		}
		seen[f] = true
	}
	if len(m.Filters) != DefaultFilters {
		t.Errorf("filter count %d", len(m.Filters))
	}
}

func TestBNParamsSane(t *testing.T) {
	m, _ := trainSmall(t)
	for f, bn := range m.BN {
		if bn.W2 <= 0 {
			t.Errorf("filter %d: non-positive std %v", f, bn.W2)
		}
		if bn.W1 < ConvMin || bn.W1 > ConvMax {
			t.Errorf("filter %d: mean %v outside conv range", f, bn.W1)
		}
		if bn.W3 != 1 || bn.W0 != 0 || bn.W4 != 0 {
			t.Errorf("filter %d: unexpected BN form %+v", f, bn)
		}
	}
}

// TestAccuracy: the trained eBNN must actually classify the synthetic
// digits — the substitution is only valid if the network learns.
func TestAccuracy(t *testing.T) {
	m, ds := trainSmall(t)
	train := m.Accuracy(ds.Train)
	test := m.Accuracy(ds.Test)
	if train < 0.95 {
		t.Errorf("train accuracy %.2f < 0.95", train)
	}
	if test < 0.85 {
		t.Errorf("test accuracy %.2f < 0.85", test)
	}
}

func TestConvPoolRange(t *testing.T) {
	m, ds := trainSmall(t)
	bits := ds.Train[0].Binarize()
	pooled := m.ConvPool(&bits)
	if len(pooled) != m.F*PoolCells {
		t.Fatalf("pooled len = %d", len(pooled))
	}
	for i, v := range pooled {
		if v < ConvMin || v > ConvMax {
			t.Errorf("pooled[%d] = %d outside [%d, %d]", i, v, ConvMin, ConvMax)
		}
	}
}

// TestConvPoolManual checks the conv arithmetic against a hand-computed
// case: an all-ones window with an all-ones filter gives 9 matches = +9.
func TestConvPoolManual(t *testing.T) {
	m := &Model{F: 1, Filters: []uint16{0x1FF}} // all +1 weights
	var bits [mnist.PixelCount]byte
	for i := range bits {
		bits[i] = 1
	}
	pooled := m.ConvPool(&bits)
	for i, v := range pooled {
		if v != 9 {
			t.Fatalf("pooled[%d] = %d, want 9", i, v)
		}
	}
	// All-zero input with all-ones filter: 0 matches = -9.
	var zero [mnist.PixelCount]byte
	pooled = m.ConvPool(&zero)
	for i, v := range pooled {
		if v != -9 {
			t.Fatalf("zero input pooled[%d] = %d, want -9", i, v)
		}
	}
}

// Property: conv result parity — 2*matches-9 is always odd.
func TestConvValueParity(t *testing.T) {
	m := &Model{F: 2, Filters: []uint16{0x0F3, 0x1A5}}
	f := func(seed int64) bool {
		img := mnist.Generate(1, seed)[0]
		bits := img.Binarize()
		for _, v := range m.ConvPool(&bits) {
			if v%2 == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLUTMatchesBNBinAct: Algorithm 1's table must agree with the folded
// threshold on every possible conv value.
func TestLUTMatchesBNBinAct(t *testing.T) {
	m, _ := trainSmall(t)
	lut := m.BuildLUT()
	if len(lut) != LUTRows*m.F {
		t.Fatalf("LUT size %d", len(lut))
	}
	for v := ConvMin; v <= ConvMax; v++ {
		for f := 0; f < m.F; f++ {
			got := lut[(v-ConvMin)*m.F+f]
			want := m.BinAct(int8(v), f)
			if got != want {
				t.Errorf("LUT[v=%d,f=%d] = %d, BN-BinAct = %d", v, f, got, want)
			}
		}
	}
}

// TestLUTMonotone: BinAct with W3>0 is a step function of v — once the
// activation turns on it stays on.
func TestLUTMonotone(t *testing.T) {
	m, _ := trainSmall(t)
	lut := m.BuildLUT()
	for f := 0; f < m.F; f++ {
		on := false
		for v := ConvMin; v <= ConvMax; v++ {
			e := lut[(v-ConvMin)*m.F+f] != 0
			if on && !e {
				t.Errorf("filter %d: activation turned off at v=%d", f, v)
			}
			on = on || e
		}
		if !on {
			t.Errorf("filter %d never activates over the conv range", f)
		}
	}
}

func TestFeaturesViaLUTEqualsFeatures(t *testing.T) {
	m, ds := trainSmall(t)
	lut := m.BuildLUT()
	for i := 0; i < 20; i++ {
		a := m.Features(&ds.Test[i])
		b := m.FeaturesViaLUT(&ds.Test[i], lut)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("image %d feature %d differs: float %d vs LUT %d", i, j, a[j], b[j])
			}
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float32{1, 2, 3})
	var sum float32
	for _, v := range p {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Large logits must not overflow.
	p = Softmax([]float32{1000, 999, 0})
	if math.IsNaN(float64(p[0])) || p[0] < p[1] {
		t.Errorf("softmax unstable: %v", p)
	}
}

func TestThresholdFoldMatchesAlgorithm1(t *testing.T) {
	// For arbitrary BN params with positive W2, W3, the folded threshold
	// decision equals the unfolded Algorithm 1 pipeline (up to float
	// rounding at exact boundaries, which the generator avoids).
	f := func(w0, w1, w4 int8, w2u, w3u uint8) bool {
		bn := BNParams{
			W0: float32(w0) / 4,
			W1: float32(w1) / 4,
			W2: 0.5 + float32(w2u)/64,
			W3: 0.5 + float32(w3u)/64,
			W4: float32(w4) / 4,
		}
		m := &Model{F: 1, BN: []BNParams{bn}}
		for v := ConvMin; v <= ConvMax; v++ {
			tmp := float32(v)
			tmp += bn.W0
			tmp -= bn.W1
			tmp /= bn.W2
			tmp *= bn.W3
			tmp += bn.W4
			want := byte(0)
			if tmp >= 0 {
				want = 1
			}
			got := m.BinAct(int8(v), 0)
			if got != want {
				// Tolerate rounding-boundary disagreements only.
				if math.Abs(float64(tmp)) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFeatures(t *testing.T) {
	res := make([]byte, ResultSize)
	res[0] = 0b10100101 // cell 0
	res[5] = 0b00000001 // cell 5
	feats := DecodeFeatures(res, 8)
	if len(feats) != PoolCells*8 {
		t.Fatalf("feature len %d", len(feats))
	}
	wantCell0 := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	for f, w := range wantCell0 {
		if feats[f] != w {
			t.Errorf("cell0 filter %d = %d, want %d", f, feats[f], w)
		}
	}
	if feats[5*8] != 1 || feats[5*8+1] != 0 {
		t.Error("cell 5 decode wrong")
	}
}

func TestPredictFeaturesMatchesPredict(t *testing.T) {
	m, ds := trainSmall(t)
	for i := 0; i < 10; i++ {
		if m.Predict(&ds.Test[i]) != m.PredictFeatures(m.Features(&ds.Test[i])) {
			t.Fatalf("image %d: Predict and PredictFeatures disagree", i)
		}
	}
}
