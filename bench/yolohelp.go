package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"pimdnn/internal/yolo"
)

// convShape is one convolution lowered to GEMM: C(m×n) = A(m×k)·B(k×n).
type convShape struct{ layer, m, n, k int }

// yoloConvShapes lists the GEMM every conv layer of net dispatches, in
// layer order, and checks the list against the network's own MAC count.
func yoloConvShapes(net *yolo.Network) ([]convShape, error) {
	var shapes []convShape
	var macs int64
	c := 3
	for i, def := range net.Defs {
		oc, oh, ow := net.Shape(i)
		if def.Kind == yolo.Conv {
			sh := convShape{layer: i, m: def.Filters, n: oh * ow, k: c * def.Size * def.Size}
			shapes = append(shapes, sh)
			macs += int64(sh.m) * int64(sh.n) * int64(sh.k)
		}
		c = oc
	}
	if macs != net.MACs() {
		return nil, fmt.Errorf("conv shapes give %d MACs, network reports %d", macs, net.MACs())
	}
	return shapes, nil
}

// hashResult folds a forward pass's raw detection tensors and decoded
// boxes into one value, so a stored expectation per input is 8 bytes.
// The tiny networks often decode no box; the raw tensors still differ
// for every input.
func hashResult(res *yolo.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, t := range res.YoloOutputs {
		put(uint64(t.C)<<40 | uint64(t.H)<<20 | uint64(t.W))
		for _, v := range t.Data {
			b[0], b[1] = byte(v), byte(v>>8)
			h.Write(b[:2])
		}
	}
	for _, d := range res.Detections {
		for _, f := range []float64{d.X, d.Y, d.W, d.H, d.Confidence} {
			put(math.Float64bits(f))
		}
		put(uint64(d.Class))
	}
	return h.Sum64()
}

// hashLogits is hashResult for the classifiers' raw logits.
func hashLogits(logits []int16) uint64 {
	h := fnv.New64a()
	var b [2]byte
	for _, v := range logits {
		b[0], b[1] = byte(v), byte(v>>8)
		h.Write(b[:])
	}
	return h.Sum64()
}

// seededInt16 fills n small Q10.5-range values: replay operands have
// the shapes and byte sizes of the real call, not its values (kernel
// charges key on operation kind and width).
func seededInt16(rng *rand.Rand, n int) []int16 {
	v := make([]int16, n)
	for i := range v {
		v[i] = int16(rng.Intn(129) - 64)
	}
	return v
}
