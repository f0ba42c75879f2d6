package graph

import "math/bits"

// NodeSet is a set of the nodes of an n-node graph: a bitmap of n/8 bytes,
// bit u for node u. It is the one set of distinct nodes that the walk and
// trajectory code builds, and it needs no fallback for IDs outside [0, n):
// a recording takes every node ID from its session, and a decoded .osnt file
// has each one range-checked against its header, so Add on an ID outside
// the set's range is a bug and panics. The nil set is empty.
type NodeSet []uint64

// NewNodeSet returns an empty set over the nodes [0, n).
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// Add inserts u and reports whether it was absent.
func (s NodeSet) Add(u Node) bool {
	w, b := uint(u)>>6, uint64(1)<<(uint(u)&63)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// Remove deletes u.
func (s NodeSet) Remove(u Node) { s[uint(u)>>6] &^= 1 << (uint(u) & 63) }

// Has reports whether u is in the set.
func (s NodeSet) Has(u Node) bool {
	w := uint(u) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(u)&63)) != 0
}

// AppendTo appends the set's nodes to dst in ascending order.
func (s NodeSet) AppendTo(dst []Node) []Node {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, Node(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Ranks returns a function giving each member of s its index among the
// members in ascending order, the order AppendTo lists them in. It counts
// each 64-node word's members once, so a lookup reads two words; s must not
// change while the function is in use.
func (s NodeSet) Ranks() func(u Node) int {
	below := make([]int32, len(s))
	n := int32(0)
	for w, word := range s {
		below[w] = n
		n += int32(bits.OnesCount64(word))
	}
	return func(u Node) int {
		w := uint(u) >> 6
		return int(below[w]) + bits.OnesCount64(s[w]&(1<<(uint(u)&63)-1))
	}
}
