// Package coverage implements method-coverage collection, the analogue of the
// paper's MiniTrace setup (Section 6.1): it records which methods of the AUT
// executed, without instrumenting the app or the testing tool.
//
// Sets are dense bitsets over the app's method universe, because the harness
// unions, intersects and counts them constantly (Jaccard/AJS in Section 3.1,
// cumulative coverage in RQ3–RQ5).
package coverage

import "math/bits"

// Set is a mutable set of method IDs in [0, n).
type Set struct {
	bits  []uint64
	n     int
	count int
}

// NewSet returns an empty set over a universe of n methods.
func NewSet(n int) *Set {
	return &Set{bits: make([]uint64, (n+63)/64), n: n}
}

// Universe returns the size of the method universe.
func (s *Set) Universe() int { return s.n }

// Add inserts id and reports whether it was newly added.
// Out-of-range ids panic: they indicate a wiring bug, not bad input.
func (s *Set) Add(id int) bool {
	if id < 0 || id >= s.n {
		panic("coverage: method id out of range")
	}
	w, b := id/64, uint64(1)<<(id%64)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.count++
	return true
}

// Count returns the number of covered methods.
func (s *Set) Count() int { return s.count }

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{bits: make([]uint64, len(s.bits)), n: s.n, count: s.count}
	copy(c.bits, s.bits)
	return c
}

// UnionWith adds every element of o to s.
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	count := 0
	for i := range s.bits {
		s.bits[i] |= o.bits[i]
		count += popcount(s.bits[i])
	}
	s.count = count
}

// IntersectCount returns |s ∩ o| without materialising the intersection.
func (s *Set) IntersectCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i := range s.bits {
		c += popcount(s.bits[i] & o.bits[i])
	}
	return c
}

// DifferenceCount returns |s \ o|.
func (s *Set) DifferenceCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i := range s.bits {
		c += popcount(s.bits[i] &^ o.bits[i])
	}
	return c
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic("coverage: sets over different universes")
	}
}

// UnionOf returns the union of all sets; it panics on an empty slice because
// the universe size would be unknown.
func UnionOf(sets []*Set) *Set {
	if len(sets) == 0 {
		panic("coverage: UnionOf with no sets")
	}
	u := sets[0].Clone()
	for _, s := range sets[1:] {
		u.UnionWith(s)
	}
	return u
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
