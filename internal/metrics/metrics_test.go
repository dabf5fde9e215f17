package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"taopt/internal/coverage"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

func set(n int, ids ...int) *coverage.Set {
	s := coverage.NewSet(n)
	s.AddAll(ids)
	return s
}

func TestJaccard(t *testing.T) {
	a := set(100, 1, 2, 3, 4)
	b := set(100, 3, 4, 5, 6)
	if got := Jaccard(a, b); math.Abs(got-2.0/6.0) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(set(10), set(10)); got != 1 {
		t.Fatalf("empty-empty Jaccard = %v, want 1", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Fatal("self Jaccard must be 1")
	}
}

func TestJaccardProperties(t *testing.T) {
	if err := quick.Check(func(as, bs []uint8) bool {
		a, b := coverage.NewSet(256), coverage.NewSet(256)
		for _, v := range as {
			a.Add(int(v))
		}
		for _, v := range bs {
			b.Add(int(v))
		}
		j := Jaccard(a, b)
		return j >= 0 && j <= 1 && math.Abs(j-Jaccard(b, a)) < 1e-15
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestJaccardMatchesTwoPass checks the one-pass Jaccard against the
// two-pass |A∩B| / |A∪B| over random pairs of sets, empty, disjoint, equal
// and dense ones among them, up to a Zedge-sized universe: the counts are
// exact integers, so the quotients must be equal, not merely close.
func TestJaccardMatchesTwoPass(t *testing.T) {
	twoPass := func(a, b *coverage.Set) float64 {
		union := a.UnionCount(b)
		if union == 0 {
			return 1
		}
		return float64(a.IntersectCount(b)) / float64(union)
	}
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 63, 64, 65, 1000, 90000} {
		random := func(density float64) *coverage.Set {
			s := coverage.NewSet(n)
			for id := 0; id < n; id++ {
				if rng.Bool(density) {
					s.Add(id)
				}
			}
			return s
		}
		even, odd := coverage.NewSet(n), coverage.NewSet(n)
		for id := 0; id < n; id++ {
			if id%2 == 0 {
				even.Add(id)
			} else {
				odd.Add(id)
			}
		}
		full := random(1)
		pairs := [][2]*coverage.Set{
			{coverage.NewSet(n), coverage.NewSet(n)},
			{coverage.NewSet(n), full},
			{even, odd},
			{full, full.Clone()},
		}
		for i := 0; i < 20; i++ {
			pairs = append(pairs, [2]*coverage.Set{random(rng.Float64()), random(rng.Float64())})
		}
		for i, p := range pairs {
			if got, want := Jaccard(p[0], p[1]), twoPass(p[0], p[1]); got != want {
				t.Fatalf("universe %d pair %d: Jaccard %v, two-pass %v", n, i, got, want)
			}
		}
	}
}

func TestAJS(t *testing.T) {
	sets := []*coverage.Set{
		set(100, 1, 2),
		set(100, 1, 2),
		set(100, 3, 4),
	}
	// Pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> AJS = 1/3.
	if got := AJS(sets); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("AJS = %v, want 1/3", got)
	}
	if AJS(sets[:1]) != 0 {
		t.Fatal("AJS of one set must be 0")
	}
}

func tl(points ...Point) Timeline { return Timeline(points) }

func TestTimelineReach(t *testing.T) {
	timeline := tl(
		Point{Wall: 10, Machine: 50, Covered: 100},
		Point{Wall: 20, Machine: 100, Covered: 200},
		Point{Wall: 30, Machine: 150, Covered: 300},
	)
	if at, ok := timeline.WallToReach(200); !ok || at != 20 {
		t.Fatalf("WallToReach = %v %v", at, ok)
	}
	if at, ok := timeline.MachineToReach(250); !ok || at != 150 {
		t.Fatalf("MachineToReach = %v %v", at, ok)
	}
	if _, ok := timeline.WallToReach(999); ok {
		t.Fatal("unreachable target reported reached")
	}
	if timeline.FinalCoverage() != 300 {
		t.Fatal("FinalCoverage")
	}
	if tl().FinalCoverage() != 0 {
		t.Fatal("empty timeline FinalCoverage")
	}
}

func TestDurationSaved(t *testing.T) {
	timeline := tl(
		Point{Wall: 15 * sim.Duration(60e9), Covered: 500},
		Point{Wall: 60 * sim.Duration(60e9), Covered: 900},
	)
	lp := 60 * sim.Duration(60e9)
	if got := DurationSaved(timeline, 500, lp); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("DurationSaved = %v, want 0.75", got)
	}
	if got := DurationSaved(timeline, 10000, lp); got != 0 {
		t.Fatal("unreached target must save 0")
	}
	if got := DurationSaved(timeline, 500, 0); got != 0 {
		t.Fatal("zero budget must save 0")
	}
}

func TestResourceSaved(t *testing.T) {
	timeline := tl(
		Point{Machine: 2 * sim.Duration(3600e9), Covered: 500},
		Point{Machine: 5 * sim.Duration(3600e9), Covered: 900},
	)
	budget := 5 * sim.Duration(3600e9)
	if got := ResourceSaved(timeline, 500, budget); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("ResourceSaved = %v, want 0.6", got)
	}
}

func TestUIOccurrenceAverage(t *testing.T) {
	counts := map[ui.Signature]int{1: 10, 2: 20, 3: 30}
	if got := UIOccurrenceAverage(counts); got != 20 {
		t.Fatalf("UIOccurrenceAverage = %v, want 20", got)
	}
	if UIOccurrenceAverage(nil) != 0 {
		t.Fatal("empty map")
	}
}

func TestOverlapHistogram(t *testing.T) {
	explored := []map[int]bool{
		{0: true},
		{0: true, 1: true, 2: true},
		{0: true, 1: true, 2: true, 3: true, 4: true},
		{},
	}
	hist := OverlapHistogram(explored, 5)
	want := []int{1, 0, 1, 0, 1}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist = %v, want %v", hist, want)
		}
	}
}

func TestBehaviorPreservation(t *testing.T) {
	base := set(100, 1, 2, 3, 4)
	coord := set(100, 3, 4, 5, 6, 7)
	j, missed := BehaviorPreservation(base, coord)
	if math.Abs(j-2.0/7.0) > 1e-12 {
		t.Fatalf("jaccard = %v", j)
	}
	if math.Abs(missed-0.5) > 1e-12 {
		t.Fatalf("missed = %v, want 0.5", missed)
	}
	if _, m := BehaviorPreservation(set(100), coord); m != 0 {
		t.Fatal("empty baseline: missed must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.P25 != 1.75 || s.P75 != 3.25 {
		t.Fatalf("quartiles = %v %v", s.P25, s.P75)
	}
	if s.SampleStdDeviation < 1.29 || s.SampleStdDeviation > 1.30 {
		t.Fatalf("stddev = %v", s.SampleStdDeviation)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty Summarize")
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.SampleStdDeviation != 0 {
		t.Fatalf("single-value Summarize = %+v", one)
	}
}
