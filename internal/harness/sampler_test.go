package harness

import (
	"testing"

	"taopt/internal/coverage"
	"taopt/internal/metrics"
	"taopt/internal/sim"
)

// TestCoverageSamplerMatchesFromScratch is the sampler's oracle: over random
// runs where sets grow between samples, some retire and stop growing, some
// samples change nothing and new sets join between samples, every sample's
// covered count equals the size of a fresh union and its AJS equals
// metrics.AJS exactly.
func TestCoverageSamplerMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		universe := 1 + rng.Intn(700)
		var (
			c       coverageSampler
			sets    []*coverage.Set
			retired []bool
		)
		for sample := 0; sample < 40; sample++ {
			if len(sets) == 0 || (len(sets) < 9 && rng.Bool(0.3)) {
				sets = append(sets, coverage.NewSet(universe))
				retired = append(retired, false)
			}
			for i, s := range sets {
				if retired[i] {
					continue
				}
				if rng.Bool(0.1) {
					retired[i] = true
					continue
				}
				if rng.Bool(0.5) {
					for k := rng.Intn(universe/20 + 2); k > 0; k-- {
						s.Add(rng.Intn(universe))
					}
				}
			}
			covered, ajs := c.sample(sets)
			if want := coverage.UnionOf(sets).Count(); covered != want {
				t.Fatalf("seed %d sample %d: covered %d, fresh union %d", seed, sample, covered, want)
			}
			if want := metrics.AJS(sets); ajs != want {
				t.Fatalf("seed %d sample %d (%d sets): AJS %v, metrics.AJS %v", seed, sample, len(sets), ajs, want)
			}
		}
	}
}
