package graph

import (
	"slices"
	"testing"
)

// TestNodeSet: Add reports new members, Has and Remove agree with it,
// AppendTo lists the members in ascending order, up to the last node ID of
// a set whose final word holds one bit, and Ranks gives each member its index
// in that list. The nil set is empty.
func TestNodeSet(t *testing.T) {
	const n = 1<<16 + 1
	s := NewNodeSet(n)
	in := []Node{n - 1, 0, 63, 64, 4097, 63}
	for i, u := range in {
		if got, want := s.Add(u), !slices.Contains(in[:i], u); got != want {
			t.Errorf("Add(%d) = %v, want %v", u, got, want)
		}
	}
	members := s.AppendTo(nil)
	if want := []Node{0, 63, 64, 4097, n - 1}; !slices.Equal(members, want) {
		t.Errorf("AppendTo = %v, want %v", members, want)
	}
	rank := s.Ranks()
	for i, u := range members {
		if r := rank(u); r != i {
			t.Errorf("rank of %d = %d, want its index %d", u, r, i)
		}
	}
	s.Remove(64)
	if s.Has(64) || !s.Has(63) || !s.Has(n-1) || s.Has(n-2) {
		t.Error("Has disagrees with the adds and the removal")
	}
	var none NodeSet
	if none.Has(0) || len(none.AppendTo(nil)) != 0 {
		t.Error("the nil set is not empty")
	}
}
