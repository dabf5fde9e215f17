package core

import (
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// SpaceTracker is the incremental form of Algorithm 1 for the Observe hot
// path. Where FindSpace re-derives everything from the visit slice on every
// invocation — dense ids, pairwise match verdicts, suffix counts — the
// tracker is a stateful per-instance structure that maintains the rolling
// statistics across events: the interned visit sequence, per-screen window
// counts and the distinct-screen total are updated in O(1) amortised per
// pushed visit, and the signature-interning table (shared between all of an
// Analyzer's trackers) memoises Matcher verdicts so the analysis sweep runs
// on integers with zero allocations and zero Matcher calls in the steady
// state.
//
// Analyze is byte-for-byte equivalent to FindSpace over the tracker's
// current window: identical split index, score components and member order,
// with float arithmetic arranged expression-for-expression like the
// reference implementation (all intermediate overlap sums are integers below
// 2^53, so the int64 accumulator converts exactly to FindSpace's float64
// one). FindSpace stays in the tree as the reference oracle; the
// differential and fuzz suites hold the two paths equal.
type SpaceTracker struct {
	it   *internTable
	lMin sim.Duration

	// Window state, maintained incrementally by Push/DropTo/Reset.
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

// NewSpaceTracker returns a tracker with its own interning table judging
// pairs with m. m must be deterministic and symmetric (see internTable).
func NewSpaceTracker(lMin sim.Duration, m Matcher) *SpaceTracker {
	return newSpaceTrackerShared(newInternTable(byMatcher(m)), lMin)
}

// newSpaceTrackerShared returns a tracker sharing an existing interning
// table; the Analyzer uses one table across all instances so a signature
// pair judged on one instance's trace is never re-judged on another's.
func newSpaceTrackerShared(it *internTable, lMin sim.Duration) *SpaceTracker {
	return &SpaceTracker{it: it, lMin: lMin}
}

// Len returns the current window length.
func (t *SpaceTracker) Len() int { return len(t.seq) }

// Push appends one visit to the window: interning, the window counts and the
// distinct total are all O(1) amortised.
//
//lint:hotpath
func (t *SpaceTracker) Push(v ScreenVisit) {
	id := t.it.intern(v.Sig)
	if int(id) >= len(t.cnt) {
		t.growCounts()
	}
	t.seq = append(t.seq, id)
	t.times = append(t.times, v.At)
	if t.cnt[id] == 0 {
		t.distinct++
	}
	t.cnt[id]++
}

// DropTo trims the window to at most max visits by dropping the oldest, the
// same suffix-keeping semantics as the Analyzer's WindowCap. Unlike the
// legacy path it never copies the surviving window: the slices alias forward
// and compaction happens for free on the next append that outgrows the
// backing array.
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

// growCounts extends the per-id arrays to the interning table's size.
func (t *SpaceTracker) growCounts() {
	n := t.it.len()
	if cap(t.cnt) >= n {
		t.cnt = t.cnt[:n]
		return
	}
	next := make([]int32, n, 2*n)
	copy(next, t.cnt)
	t.cnt = next
}

// ensureScratch sizes the per-id scratch arrays to the interning table.
func (t *SpaceTracker) ensureScratch() {
	n := t.it.len()
	if len(t.suffCnt) >= n {
		return
	}
	grow := 2 * n
	t.suffCnt = append(make([]int32, 0, grow), make([]int32, n)...)
	t.matchSum = append(make([]int32, 0, grow), make([]int32, n)...)
	t.inPD = append(make([]bool, 0, grow), make([]bool, n)...)
	t.seen = append(make([]uint64, 0, grow), make([]uint64, n)...)
}

// Analyze runs Algorithm 1 over the current window and returns exactly what
// FindSpace(window, lMin, m) would: same candidate boundary, same score
// bits, same member order. See FindSpace for the algorithm; this version
// differs only in what it reuses — pre-interned ids instead of a per-call
// dense-id map, the shared match matrix instead of a per-call cache, the
// maintained window counts instead of an O(N) recount, and a memoised
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
	// possible count, with the same expression FindSpace evaluates per split.
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
	var overlap int64 // exact: every FindSpace float increment is an integer
	it := t.it
	// addToPD admits x to the prefix's distinct set and returns the overlap
	// gained: one unit per suffix occurrence of every window screen matching
	// x. Verdicts are read straight off x's memoised match-matrix row (the
	// diagonal is pre-filled, so d == x needs no special case); the Matcher
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
