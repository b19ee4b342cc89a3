package nn

// PlanSlot returns layer i's slot in the activation plan: its element
// offset and count in one image's slab and its last reader (count 0:
// the layer writes no slot).
func (n *Network) PlanSlot(i int) (off, elems, last int) {
	s := n.slots[i]
	return s.off, s.n, s.last
}

// SlabElems returns one image's activation slab length in elements.
func (n *Network) SlabElems() int { return n.slab }
