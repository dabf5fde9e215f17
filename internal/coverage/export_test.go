package coverage

import "math/bits"

// AddAll inserts every id and returns how many were new.
func (s *Set) AddAll(ids []int) int {
	added := 0
	for _, id := range ids {
		if s.Add(id) {
			added++
		}
	}
	return added
}

// Has reports membership.
func (s *Set) Has(id int) bool {
	if id < 0 || id >= s.n {
		return false
	}
	return s.bits[id/64]&(1<<(id%64)) != 0
}

// UnionCount returns |s ∪ o| without materialising the union.
func (s *Set) UnionCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i := range s.bits {
		c += popcount(s.bits[i] | o.bits[i])
	}
	return c
}

// Elements returns the covered ids in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.count)
	for w, word := range s.bits {
		for word != 0 {
			b := word & (-word)
			out = append(out, w*64+trailingZeros(b))
			word ^= b
		}
	}
	return out
}

// Union returns a fresh set |a ∪ b|.
func Union(a, b *Set) *Set {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
