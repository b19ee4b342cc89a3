package nn

import "fmt"

// maxElems bounds one layer's output and one image's activation slab, in
// int16 elements (1 GiB), so a forward pass never asks for more. Every
// check against it fits a 32-bit int.
const maxElems = 1 << 29

// elems returns s's element count, or 0 when it exceeds maxElems.
func (s shape) elems() int {
	if s.c > maxElems/s.h || s.c*s.h > maxElems/s.w {
		return 0
	}
	return s.c * s.h * s.w
}

// slot is a layer's output in each image's slab: n elements at off, live
// from the layer through last, its last reader.
type slot struct {
	shape
	off, n, last int
}

// plan lays out the activations from the layer list alone (DESIGN.md,
// "Activation plan"): the producers each layer reads, a slot for each
// layer that does not pass its input through, each slot's inclusive live
// range (a head's input and the final output live to the last layer),
// and first-fit offsets in layer order that two slots share only if
// their ranges do not overlap.
func (n *Network) plan() error {
	end, held := len(n.Defs)-1, make([]int, len(n.Defs))
	n.reads, n.slots = make([][]int, len(n.Defs)), make([]slot, len(n.Defs))
	cur, res := -1, -1 // producers of the current activation and the open residual
	for i, l := range n.Defs {
		reads, out := []int{cur}, n.shapes[i]
		switch l.Kind {
		case Shortcut:
			reads = append(reads, held[i+l.From])
		case BlockEnd:
			reads = append(reads, res)
		case Route:
			reads = reads[:0]
			for _, ref := range l.Layers {
				if ref < 0 {
					ref += i
				}
				reads = append(reads, held[ref])
			}
		case BlockStart:
			reads, out, res = nil, shape{}, cur
			if l.Project {
				reads, out, res = []int{cur}, n.gemms[i].out, i
			}
		case Head:
			out = shape{}
		}
		for _, p := range reads {
			if p >= 0 {
				n.slots[p].last = max(n.slots[p].last, i)
				if l.Kind == Head {
					n.slots[p].last = end
				}
			}
		}
		if n.reads[i] = reads; out != (shape{}) {
			n.slots[i] = slot{shape: out, n: out.elems(), last: i}
			if l.Kind != BlockStart {
				cur = i
			}
		}
		held[i] = cur
	}
	if n.fin = cur; cur >= 0 {
		n.slots[cur].last = end
	}
	for i := range n.slots {
		s := &n.slots[i]
		for moved := s.n > 0; moved; {
			moved = false
			for j := range n.slots[:i] {
				if o := &n.slots[j]; o.last >= i && s.off < o.off+o.n && o.off < s.off+s.n {
					s.off, moved = o.off+o.n, true
				}
			}
		}
		if s.off > maxElems-s.n {
			return fmt.Errorf("nn: layer %d: activation slab exceeds %d elements", i, maxElems)
		}
		n.slab = max(n.slab, s.off+s.n)
	}
	return nil
}
