package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// trackerFromVisits pushes a whole visit slice through a fresh tracker.
func trackerFromVisits(visits []ScreenVisit, lMin sim.Duration, m Matcher) *SpaceTracker {
	tr := NewSpaceTracker(lMin, m)
	for _, v := range visits {
		tr.Push(v)
	}
	return tr
}

// TestSpaceTrackerMatchesFindSpaceExactly is the core equivalence property:
// over random windows and both matcher shapes, Analyze must reproduce
// FindSpace bit for bit — same ok, same split, same float bits in every
// score component, same member order.
func TestSpaceTrackerMatchesFindSpaceExactly(t *testing.T) {
	check := func(seedTokens []uint8) bool {
		if len(seedTokens) > 80 {
			seedTokens = seedTokens[:80]
		}
		tokens := make([]int, len(seedTokens))
		for i, b := range seedTokens {
			tokens[i] = int(b % 12)
		}
		visits := mkTrace(tokens)
		for _, m := range []Matcher{Matcher(MatchExact{}), Matcher(fuzzMatcher{})} {
			want, wantOK := FindSpace(visits, 5*second, m)
			tr := trackerFromVisits(visits, 5*second, m)
			got, gotOK := tr.Analyze()
			if gotOK != wantOK {
				return false
			}
			if gotOK && !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSpaceTrackerMatchesFindSpaceUnderDrops replays a long trace with the
// Analyzer's window-cap drop rule on both representations and compares the
// analysis after every push — the tracker's aliased drops and maintained
// counts must stay equivalent to a freshly sliced window.
func TestSpaceTrackerMatchesFindSpaceUnderDrops(t *testing.T) {
	const cap = 40
	var tokens []int
	for i := 0; i < 300; i++ {
		// Phase changes every 60 steps so candidates actually appear.
		tokens = append(tokens, (i/60)*100+i%5)
	}
	visits := mkTrace(tokens)

	for _, m := range []Matcher{Matcher(MatchExact{}), Matcher(fuzzMatcher{})} {
		tr := NewSpaceTracker(5*second, m)
		var window []ScreenVisit
		for i, v := range visits {
			tr.Push(v)
			tr.DropTo(cap)
			window = append(window, v)
			if len(window) > cap {
				window = append(window[:0:0], window[len(window)-cap:]...)
			}
			if tr.Len() != len(window) {
				t.Fatalf("step %d: Len = %d, window = %d", i, tr.Len(), len(window))
			}
			want, wantOK := FindSpace(window, 5*second, m)
			got, gotOK := tr.Analyze()
			if gotOK != wantOK {
				t.Fatalf("step %d: ok = %v, want %v", i, gotOK, wantOK)
			}
			if gotOK && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: result diverged\n got %+v\nwant %+v", i, got, want)
			}
		}
	}
}

// TestSpaceTrackerResetStartsFresh checks Reset drops the window but keeps
// the tracker usable (and its memoised verdicts correct) for the next
// identification.
func TestSpaceTrackerResetStartsFresh(t *testing.T) {
	tr := NewSpaceTracker(5*second, fuzzMatcher{})
	for _, v := range switchTrace(40, 80) {
		tr.Push(v)
	}
	if _, ok := tr.Analyze(); !ok {
		t.Fatal("no result before reset")
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tr.Len())
	}
	if _, ok := tr.Analyze(); ok {
		t.Fatal("empty tracker analysed to a result")
	}
	// Replay a different trace on the same tracker: still equal to reference.
	visits := switchTrace(30, 60)
	for _, v := range visits {
		tr.Push(v)
	}
	want, wantOK := FindSpace(visits, 5*second, fuzzMatcher{})
	got, gotOK := tr.Analyze()
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reset divergence:\n got %+v (%v)\nwant %+v (%v)", got, gotOK, want, wantOK)
	}
}

func TestSpaceTrackerShortWindows(t *testing.T) {
	tr := NewSpaceTracker(5*second, MatchExact{})
	if _, ok := tr.Analyze(); ok {
		t.Fatal("empty window")
	}
	tr.Push(ScreenVisit{Sig: 1, At: 0})
	if _, ok := tr.Analyze(); ok {
		t.Fatal("singleton window")
	}
	tr.Push(ScreenVisit{Sig: 2, At: second})
	if _, ok := tr.Analyze(); ok {
		t.Fatal("two-visit window")
	}
	// Everything within l_min of the end: p_max < 1, like FindSpace.
	tr = NewSpaceTracker(3600*second, MatchExact{})
	for _, v := range mkTrace([]int{1, 2, 3, 4, 5}) {
		tr.Push(v)
	}
	if _, ok := tr.Analyze(); ok {
		t.Fatal("window shorter than l_min must not split")
	}
}

// countingMatcher records how many times the underlying Matcher actually ran.
type countingMatcher struct {
	calls *int
}

func (c countingMatcher) Match(a, b ui.Signature) bool {
	*c.calls++
	return fuzzMatcher{}.Match(a, b)
}

// TestInternTableMemoisesAcrossGrowth drives the table through several
// matrix growths and checks (a) verdicts survive re-layout, (b) the Matcher
// runs at most once per unordered pair, (c) the diagonal never consults it.
func TestInternTableMemoisesAcrossGrowth(t *testing.T) {
	calls := 0
	it := newInternTable(byMatcher(countingMatcher{calls: &calls}))
	const n = 70 // forces stride growth 16 → 128
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = it.intern(ui.Signature(i + 1))
	}
	if it.len() != n {
		t.Fatalf("len = %d", it.len())
	}
	if got := it.intern(ui.Signature(1)); got != ids[0] {
		t.Fatalf("re-intern changed id: %d vs %d", got, ids[0])
	}

	query := func() {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := fuzzMatcher{}.Match(ui.Signature(a+1), ui.Signature(b+1))
				if got := it.matches(ids[a], ids[b]); got != want {
					t.Fatalf("matches(%d,%d) = %v, want %v", a, b, got, want)
				}
			}
		}
	}
	query()
	after := calls
	if maxCalls := n * (n - 1) / 2; after > maxCalls {
		t.Fatalf("matcher ran %d times, memoised max is %d", after, maxCalls)
	}
	query() // fully cached second sweep
	if calls != after {
		t.Fatalf("second sweep consulted the matcher %d more times", calls-after)
	}

	// Growth after caching: verdicts must survive the matrix re-layout.
	for i := 0; i < 80; i++ {
		it.intern(ui.Signature(1000 + i))
	}
	query()
	if calls != after {
		t.Fatalf("growth lost %d cached verdicts", calls-after)
	}
}

// TestAnalyzerLegacyAndTrackedCandidatesIdentical streams one synthetic
// event sequence through a legacy-mode and a tracker-mode Analyzer and
// requires the emitted candidate sequences to be deep-equal. (The
// catalog-wide version over real apps/tools/seeds lives in
// internal/harness.)
func TestAnalyzerLegacyAndTrackedCandidatesIdentical(t *testing.T) {
	book := trace.NewBook()
	var sigs []ui.Signature
	for i := 0; i < 12; i++ {
		sigs = append(sigs, observe(book, structScreen("A", 3+i)))
	}
	mk := func(legacy bool) *Analyzer {
		cfg := DefaultAnalyzerConfig(LMinShort)
		cfg.AnalyzeEvery = 7
		cfg.WindowCap = 60
		cfg.Legacy = legacy
		return NewAnalyzer(cfg, book)
	}
	aLegacy, aTracked := mk(true), mk(false)

	var gotLegacy, gotTracked []Candidate
	at := sim.Duration(0)
	for i := 0; i < 500; i++ {
		at += sim.Duration(1e9)
		// Three instances interleaved, phase change every 70 steps per
		// instance, an occasional enforced event that both must skip.
		ev := trace.Event{
			Instance: i % 3,
			At:       at,
			Action:   trace.Action{Kind: trace.ActionTap},
			To:       sigs[((i/210)*4+i%7)%len(sigs)],
			Enforced: i%41 == 0,
		}
		if c, ok := aLegacy.Observe(ev); ok {
			gotLegacy = append(gotLegacy, c)
		}
		if c, ok := aTracked.Observe(ev); ok {
			gotTracked = append(gotTracked, c)
		}
		if i == 333 { // reset mid-stream, as the coordinator does on acceptance
			aLegacy.ResetInstance(0)
			aTracked.ResetInstance(0)
		}
	}
	if len(gotLegacy) == 0 {
		t.Fatal("synthetic stream produced no candidates; test is vacuous")
	}
	if !reflect.DeepEqual(gotLegacy, gotTracked) {
		t.Fatalf("candidate sequences diverged:\nlegacy  %+v\ntracked %+v", gotLegacy, gotTracked)
	}
}

// TestAnalyzerTraceLenBothModes gives TraceLen direct coverage on the legacy
// window and the tracker window, including the cap and the enforced-skip.
func TestAnalyzerTraceLenBothModes(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	for _, legacy := range []bool{true, false} {
		cfg := DefaultAnalyzerConfig(LMinShort)
		cfg.WindowCap = 30
		cfg.Legacy = legacy
		a := NewAnalyzer(cfg, book)
		if got := a.TraceLen(7); got != 0 {
			t.Fatalf("legacy=%v: TraceLen of unknown instance = %d", legacy, got)
		}
		for i := 0; i < 20; i++ {
			a.Observe(trace.Event{Instance: 7, At: sim.Duration(i) * second, To: sig})
			a.Observe(trace.Event{Instance: 7, At: sim.Duration(i) * second, To: sig, Enforced: true})
		}
		if got := a.TraceLen(7); got != 20 {
			t.Fatalf("legacy=%v: TraceLen = %d, want 20", legacy, got)
		}
		for i := 20; i < 100; i++ {
			a.Observe(trace.Event{Instance: 7, At: sim.Duration(i) * second, To: sig})
		}
		if got := a.TraceLen(7); got != 30 {
			t.Fatalf("legacy=%v: TraceLen = %d, want cap 30", legacy, got)
		}
	}
}

// TestAnalyzerResetInstanceReleasesState pins the no-leak property: after a
// churn of instances is observed and reset, the analyzer holds state for
// exactly the live ones — retired ids must not pin their windows, trackers
// or cadence counters.
func TestAnalyzerResetInstanceReleasesState(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	for _, legacy := range []bool{true, false} {
		cfg := DefaultAnalyzerConfig(LMinShort)
		cfg.Legacy = legacy
		a := NewAnalyzer(cfg, book)
		for id := 0; id < 50; id++ {
			for i := 0; i < 10; i++ {
				a.Observe(trace.Event{Instance: id, At: sim.Duration(i) * second, To: sig})
			}
			if id != 42 {
				a.ResetInstance(id)
			}
		}
		if got := a.instanceStates(); got != 1 {
			t.Fatalf("legacy=%v: %d instance states retained, want 1", legacy, got)
		}
		if got := a.TraceLen(42); got != 10 {
			t.Fatalf("legacy=%v: survivor TraceLen = %d", legacy, got)
		}
		if got := a.TraceLen(0); got != 0 {
			t.Fatalf("legacy=%v: reset instance still has a window of %d", legacy, got)
		}
		a.ResetInstance(42)
		a.ResetInstance(42) // double reset is fine
		if got := a.instanceStates(); got != 0 {
			t.Fatalf("legacy=%v: %d states after full reset", legacy, got)
		}
	}
}
