package core

import (
	"testing"
	"testing/quick"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

const second = sim.Duration(1e9)

// mkTrace builds a visit sequence from screen tokens, one second apart.
func mkTrace(tokens []int) []ScreenVisit {
	out := make([]ScreenVisit, len(tokens))
	for i, tok := range tokens {
		out[i] = ScreenVisit{Sig: ui.Signature(tok + 1), At: sim.Duration(i) * second}
	}
	return out
}

// switchTrace: `before` steps cycling screens 0..4, then `after` steps
// cycling screens 100..104 — a clean jump into a fresh subspace.
func switchTrace(before, after int) []ScreenVisit {
	var tokens []int
	for i := 0; i < before; i++ {
		tokens = append(tokens, i%5)
	}
	for i := 0; i < after; i++ {
		tokens = append(tokens, 100+i%5)
	}
	return mkTrace(tokens)
}

func TestFindSpaceIdentifiesCleanSwitch(t *testing.T) {
	visits := switchTrace(120, 240)
	res, ok := FindSpace(visits, 60*second, MatchExact{})
	if !ok {
		t.Fatal("FindSpace found nothing on a clean switch")
	}
	if res.POut < 115 || res.POut > 125 {
		t.Fatalf("p_out = %d, want ≈120", res.POut)
	}
	if res.Entry != visits[res.POut].Sig {
		t.Fatal("entry must be the screen at p_out")
	}
	if len(res.Members) != 5 {
		t.Fatalf("members = %d, want the 5 new screens", len(res.Members))
	}
	for _, m := range res.Members {
		if m < ui.Signature(101) {
			t.Fatalf("member %v from the old region", m)
		}
	}
	if res.Score > 0.3 {
		t.Fatalf("clean switch score = %v, want low", res.Score)
	}
}

func TestFindSpaceHomogeneousTraceIsOneSubspace(t *testing.T) {
	// A trace that cycles the same screens from the start IS one settled
	// subspace by Algorithm 1's lights: the best split is right after the
	// first screen and the members are exactly the cycled screens. Guarding
	// against accepting "everything the instance knows" as a subspace is
	// the coordinator's job (warm-up, MaxSpaceFraction, confirmation), not
	// FindSpace's.
	visits := switchTrace(300, 0)
	res, ok := FindSpace(visits, 60*second, MatchExact{})
	if !ok {
		t.Fatal("no result")
	}
	if len(res.Members) > 5 {
		t.Fatalf("members = %d, want at most the 5 cycled screens", len(res.Members))
	}
	for _, m := range res.Members {
		if m > ui.Signature(5) {
			t.Fatalf("unexpected member %v", m)
		}
	}
}

func TestFindSpaceRespectsLMin(t *testing.T) {
	// The new region has only been explored for 30 steps = 30s < l_min.
	visits := switchTrace(200, 30)
	res, ok := FindSpace(visits, 60*second, MatchExact{})
	if ok {
		// p_max forces the split at least l_min before the end: the "new
		// subspace" window then mixes both regions, so any result must not
		// look confident.
		if res.Score < 0.3 && res.POut >= 195 {
			t.Fatalf("split inside the l_min guard: p_out=%d score=%v", res.POut, res.Score)
		}
	}
}

func TestFindSpaceShortTraces(t *testing.T) {
	if _, ok := FindSpace(nil, 60*second, MatchExact{}); ok {
		t.Fatal("empty trace")
	}
	if _, ok := FindSpace(mkTrace([]int{1, 2}), 60*second, MatchExact{}); ok {
		t.Fatal("two-event trace")
	}
	// All events within l_min of the end: p_max < 1.
	visits := mkTrace([]int{1, 2, 3, 4, 5})
	if _, ok := FindSpace(visits, 3600*second, MatchExact{}); ok {
		t.Fatal("trace shorter than l_min must not split")
	}
}

func TestFindSpaceRevisitedRegionScoresWorse(t *testing.T) {
	// Region A, then B, then back to A: splitting at B's entry leaves A
	// screens in the suffix (revisits), so the score must be worse than a
	// clean switch's.
	var tokens []int
	for i := 0; i < 100; i++ {
		tokens = append(tokens, i%5)
	}
	for i := 0; i < 100; i++ {
		tokens = append(tokens, 100+i%5)
	}
	for i := 0; i < 100; i++ {
		tokens = append(tokens, i%5)
	}
	resMixed, okMixed := FindSpace(mkTrace(tokens), 60*second, MatchExact{})
	resClean, okClean := FindSpace(switchTrace(100, 200), 60*second, MatchExact{})
	if !okClean {
		t.Fatal("clean switch not found")
	}
	if okMixed && resMixed.Score <= resClean.Score {
		t.Fatalf("returning to the old region must not score better: mixed %v vs clean %v",
			resMixed.Score, resClean.Score)
	}
}

// fuzzMatcher counts similar tokens (within distance 1) as matching,
// exercising the CountIn similarity path.
type fuzzMatcher struct{}

func (fuzzMatcher) Match(a, b ui.Signature) bool {
	d := int64(a) - int64(b)
	if d < 0 {
		d = -d
	}
	return d <= 1
}

func TestFindSpaceWithSimilarityMatcher(t *testing.T) {
	visits := switchTrace(120, 240)
	res, ok := FindSpace(visits, 60*second, fuzzMatcher{})
	if !ok {
		t.Fatal("no result under fuzzy matching")
	}
	if res.POut < 110 || res.POut > 130 {
		t.Fatalf("p_out = %d, want ≈120", res.POut)
	}
}

// TestFindSpaceIncrementalMatchesNaive is the property test for the O(N·D)
// sweep: it must produce exactly the naive Algorithm 1 scores.
func TestFindSpaceIncrementalMatchesNaive(t *testing.T) {
	naive := func(visits []ScreenVisit, lMin sim.Duration, m Matcher) (int, float64, bool) {
		n := len(visits)
		if n < 3 {
			return 0, 0, false
		}
		end := visits[n-1].At
		pMax := -1
		for p := n - 1; p >= 0; p-- {
			if visits[p].At <= end-lMin {
				pMax = p
				break
			}
		}
		if pMax < 1 {
			return 0, 0, false
		}
		sample := map[ui.Signature]bool{}
		for i := pMax + 1; i < n; i++ {
			sample[visits[i].Sig] = true
		}
		if len(sample) == 0 {
			return 0, 0, false
		}
		scoreMin, pOut := 1.0, -1
		for p := 1; p <= pMax; p++ {
			prefix := map[ui.Signature]bool{}
			for i := 0; i < p; i++ {
				prefix[visits[i].Sig] = true
			}
			suffixDistinct := map[ui.Signature]bool{}
			for i := p; i < n; i++ {
				suffixDistinct[visits[i].Sig] = true
			}
			overlap := 0
			for s := range prefix {
				for i := p; i < n; i++ {
					if m.Match(s, visits[i].Sig) {
						overlap++
					}
				}
			}
			score := float64(overlap)/float64(n-p) +
				2*sigmoid(float64(len(suffixDistinct))/float64(len(sample))-1) - 1
			if score < scoreMin {
				scoreMin, pOut = score, p
			}
		}
		if pOut < 0 {
			return 0, 0, false
		}
		return pOut, scoreMin, true
	}

	check := func(seedTokens []uint8) bool {
		if len(seedTokens) < 5 {
			return true
		}
		if len(seedTokens) > 60 {
			seedTokens = seedTokens[:60]
		}
		tokens := make([]int, len(seedTokens))
		for i, b := range seedTokens {
			tokens[i] = int(b % 12)
		}
		visits := mkTrace(tokens)
		lMin := 5 * second
		for _, m := range []Matcher{Matcher(MatchExact{}), Matcher(fuzzMatcher{})} {
			gotP, gotScore, gotOK := 0, 0.0, false
			if res, ok := FindSpace(visits, lMin, m); ok {
				gotP, gotScore, gotOK = res.POut, res.Score, true
			}
			wantP, wantScore, wantOK := naive(visits, lMin, m)
			if gotOK != wantOK || gotP != wantP {
				return false
			}
			if gotOK && abs(gotScore-wantScore) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFindSpace measures the reference rescan's incremental sweep on a
// realistic-size window (450 visits, ~40 distinct screens).
func BenchmarkFindSpace(b *testing.B) {
	visits := make([]ScreenVisit, 450)
	for i := range visits {
		tok := i % 20
		if i > 225 {
			tok = 20 + i%20
		}
		visits[i] = ScreenVisit{Sig: ui.Signature(tok + 1), At: sim.Duration(i) * second}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindSpace(visits, 60*second, MatchExact{}); !ok {
			b.Fatal("no result")
		}
	}
}
