// Package metrics implements the paper's evaluation metrics: Jaccard
// similarity and Average Jaccard Similarity over covered-method sets (Eq. 1),
// UI-occurrence overlap (Table 6), subspace overlap frequency (Table 1),
// coverage timelines, and the duration/resource savings calculations of
// RQ3/RQ4.
package metrics

import (
	"math"
	"sort"

	"taopt/internal/coverage"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// Jaccard returns |A∩B| / |A∪B| for two covered-method sets; the similarity
// of two empty sets is defined as 1 (identical behaviour). It scans the
// sets once: |A∪B| = |A| + |B| - |A∩B|.
func Jaccard(a, b *coverage.Set) float64 {
	inter := a.IntersectCount(b)
	union := a.Count() + b.Count() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// AJS computes the Average Jaccard Similarity across all unordered pairs of
// testing instances' covered-method sets (Eq. 1). It returns 0 for fewer
// than two sets.
func AJS(sets []*coverage.Set) float64 {
	n := len(sets)
	if n < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += Jaccard(sets[i], sets[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// Point is one sample of a run's progress.
type Point struct {
	Wall    sim.Duration // wall-clock time since run start
	Machine sim.Duration // cumulative machine time across instances
	Covered int          // cumulative distinct methods across instances
	Crashes int          // cumulative unique crashes
	// AJS is the Average Jaccard Similarity across the per-instance
	// covered-method sets at this sample (Figure 3's series).
	AJS float64
}

// Timeline is a monotone sequence of samples.
type Timeline []Point

// WallToReach returns the earliest wall-clock time at which coverage reached
// target, and whether it ever did.
func (t Timeline) WallToReach(target int) (sim.Duration, bool) {
	for _, p := range t {
		if p.Covered >= target {
			return p.Wall, true
		}
	}
	return 0, false
}

// MachineToReach returns the earliest machine time at which coverage reached
// target, and whether it ever did.
func (t Timeline) MachineToReach(target int) (sim.Duration, bool) {
	for _, p := range t {
		if p.Covered >= target {
			return p.Machine, true
		}
	}
	return 0, false
}

// DurationSaved implements RQ3's metric: the fraction of the testing
// duration budget lp that a TaOPT run leaves unused at the moment it reaches
// the baseline's full-duration coverage. Returns 0 if the target is never
// reached (no saving).
func DurationSaved(t Timeline, baselineFinal int, lp sim.Duration) float64 {
	at, ok := t.WallToReach(baselineFinal)
	if !ok || lp == 0 {
		return 0
	}
	saved := float64(lp-at) / float64(lp)
	if saved < 0 {
		return 0
	}
	return saved
}

// ResourceSaved implements RQ4's metric: the fraction of the machine-time
// budget left unused when the run reaches the baseline's full-budget
// coverage. Returns 0 if the target is never reached.
func ResourceSaved(t Timeline, baselineFinal int, budget sim.Duration) float64 {
	at, ok := t.MachineToReach(baselineFinal)
	if !ok || budget == 0 {
		return 0
	}
	saved := float64(budget-at) / float64(budget)
	if saved < 0 {
		return 0
	}
	return saved
}

// UIOccurrenceAverage computes Table 6's metric: the average number of
// occurrences of each distinct abstract UI screen observed during testing
// across all instances.
func UIOccurrenceAverage(counts map[ui.Signature]int) float64 {
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(len(counts))
}

// OverlapHistogram computes Table 1's rows: given, per subspace, the set of
// instances that explored it, it returns hist[k-1] = number of subspaces
// explored by exactly k of n instances.
func OverlapHistogram(explored []map[int]bool, n int) []int {
	hist := make([]int, n)
	for _, set := range explored {
		k := len(set)
		if k == 0 {
			continue
		}
		if k > n {
			k = n
		}
		hist[k-1]++
	}
	return hist
}

// BehaviorPreservation reports how a coordinated run relates to a baseline
// run over covered methods: the Jaccard similarity of the union sets and the
// fraction of baseline-covered methods the coordinated run misses (RQ5's
// behaviour-preservation analysis).
func BehaviorPreservation(baseline, coordinated *coverage.Set) (jaccard, missedFraction float64) {
	jaccard = Jaccard(baseline, coordinated)
	if baseline.Count() == 0 {
		return jaccard, 0
	}
	missed := baseline.DifferenceCount(coordinated)
	return jaccard, float64(missed) / float64(baseline.Count())
}

// Stats summarises a sample of float64 values.
type Stats struct {
	N                  int
	Mean, Min, Max     float64
	P25, Median, P75   float64
	SampleStdDeviation float64
}

// Summarize computes summary statistics (used for the Figure 5/6 box plots).
func Summarize(values []float64) Stats {
	s := Stats{N: len(values)}
	if s.N == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	var sum float64
	for _, x := range v {
		sum += x
	}
	s.Mean = sum / float64(len(v))
	quantile := func(q float64) float64 {
		if len(v) == 1 {
			return v[0]
		}
		pos := q * float64(len(v)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[lo]*(1-frac) + v[lo+1]*frac
	}
	s.P25, s.Median, s.P75 = quantile(0.25), quantile(0.5), quantile(0.75)
	if len(v) > 1 {
		var ss float64
		for _, x := range v {
			d := x - s.Mean
			ss += d * d
		}
		s.SampleStdDeviation = sqrt(ss / float64(len(v)-1))
	}
	return s
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
