package harness

import (
	"taopt/internal/coverage"
	"taopt/internal/metrics"
)

// coverageSampler computes a sample's cumulative coverage and AJS without
// recomputing what cannot have changed since the previous sample. Coverage
// sets only grow, so a set whose Count is unchanged is the same set: the
// run-level union folds in only the sets whose count moved, and a pair's
// Jaccard similarity is recomputed only when one of its two counts moved.
// The pairs are summed in metrics.AJS's order with identical per-pair
// values, so both figures are bit-identical to the from-scratch ones.
type coverageSampler struct {
	union *coverage.Set
	// counts holds each set's Count at the previous sample; -1 marks a set
	// not seen yet.
	counts []int
	// dirty flags the sets whose count moved in the current sample.
	dirty []bool
	// pairs holds the Jaccard of sets i < j at index j*(j-1)/2 + i, a
	// layout that stays put as sets are added.
	pairs []float64
}

// sample returns the size of the union of sets and, for two or more sets,
// their AJS. Between calls sets may only grow: each call passes the
// previous call's sets in the same order, each possibly with more
// elements, followed by any new ones.
//
//lint:hotpath
func (c *coverageSampler) sample(sets []*coverage.Set) (covered int, ajs float64) {
	if c.union == nil {
		c.union = coverage.NewSet(sets[0].Universe())
	}
	for len(c.counts) < len(sets) {
		c.counts = append(c.counts, -1)
		c.dirty = append(c.dirty, false)
	}
	for i, s := range sets {
		c.dirty[i] = s.Count() != c.counts[i]
		if c.dirty[i] {
			c.union.UnionWith(s)
			c.counts[i] = s.Count()
		}
	}
	n := len(sets)
	if n < 2 {
		return c.union.Count(), 0
	}
	for len(c.pairs) < n*(n-1)/2 {
		c.pairs = append(c.pairs, 0)
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := j*(j-1)/2 + i
			if c.dirty[i] || c.dirty[j] {
				c.pairs[k] = metrics.Jaccard(sets[i], sets[j])
			}
			sum += c.pairs[k]
			pairs++
		}
	}
	return c.union.Count(), sum / float64(pairs)
}
