package ebnn

import (
	"math/bits"

	"pimdnn/internal/cpuid"
	"pimdnn/internal/mnist"
)

// useLanes selects the assembly classifier: AVX2 for the class lanes,
// POPCNT for the set-feature lists.
var useLanes = cpuid.AVX2 && cpuid.POPCNT

// listCap is one image's set-feature list: at most 8 per pooled cell.
// setFeatures' whole-row store for cell c starts at most 8c in, so it
// stays inside too. LIST, in classify_amd64.s, is listCap·4.
const listCap = PoolCells * 8

// setFeatures writes to list the set features of res[:PoolCells] under
// mask, ascending, each as its row's byte offset in the laneStride
// weights (step is F's, F·laneStride·4), and returns their count.
//
//go:noescape
func setFeatures(list *int32, res *byte, mask, step int, table *[256][8]int32) (n int)

// classSums4 adds, from the laneStride weights w, each image k's list
// lists[k][:n[k]] in order to out[k], which holds its bias on entry: the
// four images in lockstep for their first lock entries, then one by one.
//
//go:noescape
func classSums4(out *[4][laneStride]float32, w *float32, lists *[4][listCap]int32, n *[4]int, lock int)

// setBits[b] lists the set bits of byte b ascending, each as the byte
// offset of its filter's row among a cell's features.
var setBits = func() (t [256][8]int32) {
	for b := range t {
		for n, rest := 0, uint(b); rest != 0; n, rest = n+1, rest&(rest-1) {
			t[b][n] = int32(bits.TrailingZeros(rest) * laneStride * 4)
		}
	}
	return t
}()

// classify runs the host softmax layer over shards [lo, hi) of the
// gathered activation bytes, each prediction at its image's index: four
// images per logits4 pass where the host has AVX2 and POPCNT,
// classifyPacked elsewhere. A group past the last image reads its
// shard's stale slots and drops those predictions.
func (r *Runner) classify(lo, hi int) {
	if !useLanes {
		r.classifyPacked(lo, hi)
		return
	}
	w := &r.iws
	var (
		lists [4][listCap]int32
		out   [4][laneStride]float32
	)
	for i, end := lo*BatchSize, min(hi*BatchSize, len(w.preds)); i < end; i += 4 {
		r.model.logits4(&out, &lists, w.res[i*ResultSize:(i+4)*ResultSize], r.byFeature)
		for k := range min(4, end-i) {
			w.preds[i+k] = argmax(out[k][:mnist.NumClasses])
		}
	}
}

// logits4 writes to out[k][:NumClasses] the logits of the four images
// whose result bytes res holds, ResultSize apart: in every lane the
// float32 additions of logitsPacked in its order, so its bits.
// byFeature is m.softmaxByFeature(); NewRunner's shape check makes it
// long enough for every offset setFeatures lists.
func (m *Model) logits4(out *[4][laneStride]float32, lists *[4][listCap]int32, res []byte, byFeature []float32) {
	_ = res[4*ResultSize-1]
	_ = byFeature[m.FeatureLen()*laneStride-1]
	var n [4]int
	for k := range n {
		copy(out[k][:], m.Bias)
		n[k] = setFeatures(&lists[k][0], &res[k*ResultSize], 1<<m.F-1, m.F*laneStride*4, &setBits)
	}
	classSums4(out, &byFeature[0], lists, &n, min(n[0], n[1], n[2], n[3]))
}
