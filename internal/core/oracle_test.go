package core

import (
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// This file holds the reference implementation of Algorithm 1 and the
// test-only surface around it. Production analyses with the incremental
// SpaceTracker alone; FindSpace is the straightforward rescan the tracker is
// held equal to, bit for bit, by the differential, fuzz and catalog suites.

// Matcher decides whether two abstract screens count as "the same" for
// CountIn's purposes. The analyzer implements it with a cached tree
// similarity over canonical exemplar hierarchies; tests can plug exact
// equality.
type Matcher interface {
	Match(a, b ui.Signature) bool
}

// MatchExact is the trivial matcher: signature equality.
type MatchExact struct{}

// Match implements Matcher.
func (MatchExact) Match(a, b ui.Signature) bool { return a == b }

// byMatcher judges interned ids with m over their signatures.
func byMatcher(m Matcher) judge {
	return func(t *internTable, a, b int32) bool { return m.Match(t.sigs[a], t.sigs[b]) }
}

// FindSpace is Algorithm 1: given a UI transition trace S with timestamps T
// (as visits) and the exploration threshold lMin, it returns the entrypoint
// index p_out of a loosely coupled UI subspace, or ok=false if none
// qualifies.
//
// For each candidate split p, the score combines
//
//	overlap_score = (Σ_{s∈Set(S[0:p])} CountIn(s, S[p:N])) / (N−p)
//	purity_score  = Sigmoid(|Set(S[p:N])| / sample_size − 1)
//	score         = overlap_score + 2·purity_score − 1
//
// where sample_size = |Set(S[p_max+1:N])| and p_max is the latest index at
// least lMin before the end of the trace. CountIn counts appearances under
// the matcher's tree similarity. The implementation is an incremental sweep:
// O(N·D) matcher queries for D distinct screens instead of the naive O(N²·D).
func FindSpace(visits []ScreenVisit, lMin sim.Duration, m Matcher) (FindSpaceResult, bool) {
	n := len(visits)
	if n < 3 {
		return FindSpaceResult{}, false
	}
	end := visits[n-1].At

	// p_max ← max{p : T[p] ≤ T[N−1] − lMin}.
	pMax := -1
	for p := n - 1; p >= 0; p-- {
		if visits[p].At <= end-lMin {
			pMax = p
			break
		}
	}
	if pMax < 1 {
		return FindSpaceResult{}, false
	}

	// Dense ids for distinct signatures.
	denseOf := make(map[ui.Signature]int)
	var sigs []ui.Signature
	seq := make([]int, n)
	for i, v := range visits {
		d, ok := denseOf[v.Sig]
		if !ok {
			d = len(sigs)
			denseOf[v.Sig] = d
			sigs = append(sigs, v.Sig)
		}
		seq[i] = d
	}
	D := len(sigs)

	// Cached pairwise matches, computed on demand.
	matchCache := make([]int8, D*D) // 0 unknown, 1 yes, -1 no
	match := func(a, b int) bool {
		if a == b {
			return true
		}
		c := matchCache[a*D+b]
		if c == 0 {
			if m.Match(sigs[a], sigs[b]) {
				c = 1
			} else {
				c = -1
			}
			matchCache[a*D+b], matchCache[b*D+a] = c, c
		}
		return c == 1
	}

	// sample_size ← |Set(S[p_max+1:N])|.
	sampleSeen := make([]bool, D)
	sampleSize := 0
	for i := pMax + 1; i < n; i++ {
		if !sampleSeen[seq[i]] {
			sampleSeen[seq[i]] = true
			sampleSize++
		}
	}
	if sampleSize == 0 {
		return FindSpaceResult{}, false
	}

	// State for the split p=1: prefix = {S[0]}, suffix = S[1:N].
	suffCnt := make([]int, D)
	distinctSuff := 0
	for i := 1; i < n; i++ {
		if suffCnt[seq[i]] == 0 {
			distinctSuff++
		}
		suffCnt[seq[i]]++
	}
	inPD := make([]bool, D)      // prefix distinct membership
	matchSumPD := make([]int, D) // matchSumPD[d] = |{s∈PD : match(s,d)}|
	var overlap float64          // Σ_{s∈PD} Σ_d suffCnt[d]·match(s,d)
	addToPD := func(x int) {
		if inPD[x] {
			return
		}
		inPD[x] = true
		for d := 0; d < D; d++ {
			if match(x, d) {
				matchSumPD[d]++
				if suffCnt[d] > 0 {
					overlap += float64(suffCnt[d])
				}
			}
		}
	}
	addToPD(seq[0])

	scoreMin := 1.0
	pOut := -1
	var overlapMin, purityMin float64
	for p := 1; p <= pMax; p++ {
		overlapScore := overlap / float64(n-p)
		purityScore := sigmoid(float64(distinctSuff)/float64(sampleSize) - 1)
		score := overlapScore + 2*purityScore - 1
		if score < scoreMin {
			scoreMin, pOut = score, p
			overlapMin, purityMin = overlapScore, purityScore
		}

		// Advance the split: index p leaves the suffix and joins the prefix.
		if p == pMax {
			break
		}
		x := seq[p]
		suffCnt[x]--
		if suffCnt[x] == 0 {
			distinctSuff--
		}
		overlap -= float64(matchSumPD[x])
		addToPD(x)
	}
	if pOut < 0 {
		return FindSpaceResult{}, false
	}

	// Materialise the subspace: distinct screens of S[pOut:N].
	memberSeen := make([]bool, D)
	var members []ui.Signature
	for i := pOut; i < n; i++ {
		if !memberSeen[seq[i]] {
			memberSeen[seq[i]] = true
			members = append(members, sigs[seq[i]])
		}
	}
	return FindSpaceResult{
		POut:         pOut,
		Entry:        visits[pOut].Sig,
		Members:      members,
		Score:        scoreMin,
		OverlapScore: overlapMin,
		PurityScore:  purityMin,
	}, true
}

// NewSpaceTracker returns a tracker with its own interning table judging
// pairs with m. m must be deterministic and symmetric (see internTable).
func NewSpaceTracker(lMin sim.Duration, m Matcher) *SpaceTracker {
	return newSpaceTrackerShared(newInternTable(byMatcher(m)), lMin)
}

// Len returns the current window length.
func (t *SpaceTracker) Len() int { return len(t.seq) }

// Reset empties the window (the instance's next identification starts
// fresh) while keeping the interning table and its memoised verdicts.
func (t *SpaceTracker) Reset() {
	for _, x := range t.seq {
		t.cnt[x] = 0
	}
	t.distinct = 0
	t.seq = t.seq[:0]
	t.times = t.times[:0]
}

// Match implements Matcher with the cached tree similarity of canonical
// exemplar hierarchies (CountIn's comparator), memoised in the intern
// table.
func (a *Analyzer) Match(x, y ui.Signature) bool {
	return a.intern.matches(a.intern.intern(x), a.intern.intern(y))
}

// TraceLen returns the analysed window length for an instance.
func (a *Analyzer) TraceLen(id int) int {
	it, ok := a.perInstance[id]
	if !ok {
		return 0
	}
	return it.tracker.Len()
}

// instanceStates returns how many instances currently hold analysis state
// (the reset-instance tests assert retirement leaks nothing).
func (a *Analyzer) instanceStates() int { return len(a.perInstance) }

// rescanAnalyzer is the Analyzer without the incremental tracker: per
// instance it keeps the last WindowCap visits in a slice and, every
// AnalyzeEvery non-enforced events, rescans that window with FindSpace under
// the Analyzer's tree-similarity Match, then applies the same ScoreMax gate
// and decision logging. It is the reference the production Analyzer is held
// equal to, candidate for candidate and decision for decision.
type rescanAnalyzer struct {
	cfg         AnalyzerConfig
	match       *Analyzer // supplies Match; its own instance state stays unused
	visits      map[int][]ScreenVisit
	sinceReport map[int]int
}

// newRescanAnalyzer returns a rescan reference configured exactly as
// NewAnalyzer(cfg, book) would be, defaults included.
func newRescanAnalyzer(cfg AnalyzerConfig, book *trace.Book) *rescanAnalyzer {
	a := NewAnalyzer(cfg, book)
	return &rescanAnalyzer{
		cfg:         a.cfg,
		match:       a,
		visits:      make(map[int][]ScreenVisit),
		sinceReport: make(map[int]int),
	}
}

// Observe mirrors Analyzer.Observe over a rescanned visit window.
func (r *rescanAnalyzer) Observe(ev trace.Event) (Candidate, bool) {
	if ev.Enforced {
		return Candidate{}, false
	}
	visits := append(r.visits[ev.Instance], ScreenVisit{Sig: ev.To, At: ev.At})
	if len(visits) > r.cfg.WindowCap {
		// Keep the suffix; FindSpace only needs the recent window.
		drop := len(visits) - r.cfg.WindowCap
		visits = append(visits[:0:0], visits[drop:]...)
	}
	r.visits[ev.Instance] = visits
	r.sinceReport[ev.Instance]++
	if r.sinceReport[ev.Instance] < r.cfg.AnalyzeEvery {
		return Candidate{}, false
	}
	r.sinceReport[ev.Instance] = 0

	res, ok := FindSpace(visits, r.cfg.LMin, r.match)
	if !ok {
		return Candidate{}, false
	}
	at := ev.At
	if r.cfg.Clock != nil {
		at = r.cfg.Clock()
	}
	reason := "pass"
	if res.Score > r.cfg.ScoreMax {
		reason = "score-above-max"
	}
	r.cfg.Obs.Emit(obs.Decision{
		AtNS: obs.At(at), Kind: obs.KindAnalyzed, Instance: ev.Instance, Sub: -1,
		Entry: obs.Sig(res.Entry), Members: len(res.Members),
		Score: res.Score, Overlap: res.OverlapScore, Purity: res.PurityScore,
		Reason: reason,
	})
	if reason != "pass" {
		return Candidate{}, false
	}
	return Candidate{
		Instance: ev.Instance,
		Entry:    res.Entry,
		Members:  res.Members,
		Score:    res.Score,
		Overlap:  res.OverlapScore,
		Purity:   res.PurityScore,
		At:       ev.At,
	}, true
}

// ResetInstance drops the instance's window and cadence counter.
func (r *rescanAnalyzer) ResetInstance(id int) {
	delete(r.visits, id)
	delete(r.sinceReport, id)
}
