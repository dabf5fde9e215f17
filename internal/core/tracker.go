package core

import (
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// SpaceTracker is Algorithm 1 ("FindSpace") in incremental form, one per
// instance on the Observe hot path. Rather than re-deriving everything from
// the visit window on every run — dense ids, pairwise match verdicts, suffix
// counts — the tracker maintains the rolling statistics across events: the
// interned visit sequence, per-screen window counts and the distinct-screen
// total are updated in O(1) amortised per pushed visit, and the
// signature-interning table (shared between all of an Analyzer's trackers)
// memoises match verdicts so the analysis sweep runs on integers with zero
// allocations and zero judge calls in the steady state.
//
// Analyze is byte-for-byte equivalent to a from-scratch rescan of the
// tracker's current window: identical split index, score components and
// member order. All intermediate overlap sums are integers below 2^53, so
// the int64 accumulator converts exactly to the float64 sum a rescan keeps.
// The package tests hold the tracker equal to that rescan, the reference
// implementation of the paper's pseudocode, in differential and fuzz suites.
type SpaceTracker struct {
	it   *internTable
	lMin sim.Duration

	// Window state, maintained incrementally by Push and DropTo.
	seq      []int32
	times    []sim.Duration
	cnt      []int32 // cnt[id] = occurrences of id in the current window
	distinct int     // number of ids with cnt > 0

	// Scratch reused across Analyze calls so the steady state allocates
	// nothing. Entries are only valid for ids listed in winIDs (or stamped
	// with the current epoch); everything else is stale by design.
	suffCnt  []int32
	matchSum []int32
	inPD     []bool
	winIDs   []int32
	seen     []uint64
	epoch    uint64
	pur      []float64
}

// newSpaceTrackerShared returns a tracker sharing an existing interning
// table; the Analyzer uses one table across all instances so a signature
// pair judged on one instance's trace is never re-judged on another's.
func newSpaceTrackerShared(it *internTable, lMin sim.Duration) *SpaceTracker {
	return &SpaceTracker{it: it, lMin: lMin}
}

// Push appends one visit to the window: interning, the window counts and the
// distinct total are all O(1) amortised.
//
//lint:hotpath
func (t *SpaceTracker) Push(v ScreenVisit) {
	id := t.it.intern(v.Sig)
	if int(id) >= len(t.cnt) {
		t.cnt = growTo(t.cnt, t.it.len())
	}
	t.seq = append(t.seq, id)
	t.times = append(t.times, v.At)
	if t.cnt[id] == 0 {
		t.distinct++
	}
	t.cnt[id]++
}

// DropTo trims the window to at most max visits by dropping the oldest, the
// suffix-keeping semantics of the Analyzer's WindowCap. It never copies the
// surviving window: the slices alias forward and compaction happens for free
// on the next append that outgrows the backing array.
func (t *SpaceTracker) DropTo(max int) {
	if max <= 0 || len(t.seq) <= max {
		return
	}
	drop := len(t.seq) - max
	for i := 0; i < drop; i++ {
		x := t.seq[i]
		t.cnt[x]--
		if t.cnt[x] == 0 {
			t.distinct--
		}
	}
	t.seq = t.seq[drop:]
	t.times = t.times[drop:]
}

// ensureScratch sizes the per-id scratch arrays to the interning table.
func (t *SpaceTracker) ensureScratch() {
	n := t.it.len()
	t.suffCnt = growTo(t.suffCnt, n)
	t.matchSum = growTo(t.matchSum, n)
	t.inPD = growTo(t.inPD, n)
	t.seen = growTo(t.seen, n)
}

// growTo returns s lengthened to n, reslicing within its capacity when it can
// and otherwise reallocating with room to double. The per-id arrays only ever
// grow, so every entry past the old length is still zero: a zero count, an
// unset flag, or an epoch stamp no live epoch equals.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	next := make([]T, n, 2*n)
	copy(next, s)
	return next
}

// Analyze runs Algorithm 1 over the current window S (with timestamps T)
// and returns the entrypoint index p_out of a loosely coupled UI subspace,
// or ok=false if none qualifies. For each candidate split p it scores
//
//	overlap_score = (Σ_{s∈Set(S[0:p])} CountIn(s, S[p:N])) / (N−p)
//	purity_score  = Sigmoid(|Set(S[p:N])| / sample_size − 1)
//	score         = overlap_score + 2·purity_score − 1
//
// where sample_size = |Set(S[p_max+1:N])| and p_max is the latest index at
// least lMin before the end of the window; CountIn counts appearances under
// the interning table's judge. The sweep moves the split left to right in
// O(N·D) for D distinct screens, and reuses everything it can: pre-interned
// ids, the shared match matrix, the maintained window counts, and a memoised
// sigmoid table (the purity term takes at most one value per distinct-count,
// computed from the identical expression) instead of one exp call per split.
//
//lint:hotpath
func (t *SpaceTracker) Analyze() (FindSpaceResult, bool) {
	n := len(t.seq)
	if n < 3 {
		return FindSpaceResult{}, false
	}
	end := t.times[n-1]

	// p_max ← max{p : T[p] ≤ T[N−1] − lMin}.
	pMax := -1
	for p := n - 1; p >= 0; p-- {
		if t.times[p] <= end-t.lMin {
			pMax = p
			break
		}
	}
	if pMax < 1 {
		return FindSpaceResult{}, false
	}

	t.ensureScratch()
	seq := t.seq

	// Distinct ids of the current window: the only entries of the per-id
	// scratch the sweep will touch.
	winIDs := t.winIDs[:0]
	for d, c := range t.cnt {
		if c > 0 {
			winIDs = append(winIDs, int32(d))
		}
	}
	t.winIDs = winIDs

	// sample_size ← |Set(S[p_max+1:N])|.
	t.epoch++
	epoch := t.epoch
	sampleSize := 0
	for i := pMax + 1; i < n; i++ {
		if t.seen[seq[i]] != epoch {
			t.seen[seq[i]] = epoch
			sampleSize++
		}
	}
	if sampleSize == 0 {
		return FindSpaceResult{}, false
	}

	// Suffix state for the split p=1, from the maintained window counts.
	suffCnt := t.suffCnt
	for _, d := range winIDs {
		suffCnt[d] = t.cnt[d]
	}
	x0 := seq[0]
	suffCnt[x0]--
	distinctSuff := t.distinct
	if suffCnt[x0] == 0 {
		distinctSuff--
	}

	// The purity term depends on the split only through distinctSuff, which
	// only ever decreases from its p=1 value: tabulate sigmoid once per
	// possible count, with the same expression a rescan evaluates per split.
	if cap(t.pur) < distinctSuff+1 {
		t.pur = make([]float64, distinctSuff+1, 2*(distinctSuff+1))
	}
	pur := t.pur[:distinctSuff+1]
	for ds := 0; ds <= distinctSuff; ds++ {
		pur[ds] = sigmoid(float64(ds)/float64(sampleSize) - 1)
	}

	// Prefix state: distinct membership, per-id match sums, total overlap.
	matchSum := t.matchSum
	inPD := t.inPD
	for _, d := range winIDs {
		matchSum[d] = 0
		inPD[d] = false
	}
	var overlap int64 // exact: every overlap increment is an integer
	it := t.it
	// addToPD admits x to the prefix's distinct set and returns the overlap
	// gained: one unit per suffix occurrence of every window screen matching
	// x. Verdicts are read straight off x's memoised match-matrix row (the
	// diagonal is pre-filled, so d == x needs no special case); the judge
	// itself runs only on a pair's first-ever comparison. Returning the delta
	// instead of capturing overlap keeps the sweep's accumulator in a
	// register.
	addToPD := func(x int32) int64 {
		if inPD[x] {
			return 0
		}
		inPD[x] = true
		row := it.match[int(x)*it.stride:]
		var delta int64
		for _, d := range winIDs {
			v := row[d]
			if v == 0 {
				if it.matches(x, d) {
					v = 1
				} else {
					v = -1
				}
			}
			if v == 1 {
				matchSum[d]++
				delta += int64(suffCnt[d])
			}
		}
		return delta
	}
	overlap += addToPD(x0)

	scoreMin := 1.0
	pOut := -1
	var overlapMin, purityMin float64
	for p := 1; p <= pMax; p++ {
		overlapScore := float64(overlap) / float64(n-p)
		purityScore := pur[distinctSuff]
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
		overlap -= int64(matchSum[x])
		overlap += addToPD(x)
	}
	if pOut < 0 {
		return FindSpaceResult{}, false
	}

	// Materialise the subspace: distinct screens of S[pOut:N] in first-seen
	// order. The slice is freshly allocated — candidates outlive the tracker
	// (the coordinator stores them as pending reports).
	t.epoch++
	epoch = t.epoch
	members := make([]ui.Signature, 0, n-pOut)
	for i := pOut; i < n; i++ {
		d := seq[i]
		if t.seen[d] != epoch {
			t.seen[d] = epoch
			members = append(members, t.it.sig(d))
		}
	}
	return FindSpaceResult{
		POut:         pOut,
		Entry:        t.it.sig(seq[pOut]),
		Members:      members,
		Score:        scoreMin,
		OverlapScore: overlapMin,
		PurityScore:  purityMin,
	}, true
}
