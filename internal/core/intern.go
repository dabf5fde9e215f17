package core

import (
	"taopt/internal/ui"
)

// internTable interns abstract-screen signatures into small dense integers
// and memoises its judge's verdict for every pair it is ever asked about. On
// the analysis hot path, abstract-state comparison then degenerates to an
// integer index into a flat matrix — the judge itself (tree similarity over
// canonical exemplars) runs at most once per unordered signature pair for
// the lifetime of the table.
//
// The table requires the judge to be deterministic and symmetric (a, b
// judged as b, a): verdicts are cached forever and mirrored across the
// diagonal, exactly as FindSpace's per-call cache does. Every judge in this
// repository (the Analyzer's tree similarity, MatchExact, the test
// matchers) satisfies both.
//
// One table is shared by all of an Analyzer's per-instance SpaceTrackers and
// its Match, so a pair compared on one instance's trace is never re-compared
// on another's, nor by the legacy FindSpace path.
type internTable struct {
	judge judge
	ids   map[ui.Signature]int32
	sigs  []ui.Signature

	// match is a stride×stride matrix in row-major order:
	// 0 unknown, 1 match, -1 no match. The diagonal is filled with 1 at
	// intern time, so hot loops may read a row directly without an a==b
	// special case.
	match  []int8
	stride int
}

// judge decides whether interned ids a and b match. The table calls it at
// most once per unordered pair.
type judge func(t *internTable, a, b int32) bool

// byMatcher judges interned ids with m over their signatures.
func byMatcher(m Matcher) judge {
	return func(t *internTable, a, b int32) bool { return m.Match(t.sigs[a], t.sigs[b]) }
}

// newInternTable returns an empty table judging pairs with j.
func newInternTable(j judge) *internTable {
	return &internTable{judge: j, ids: make(map[ui.Signature]int32)}
}

// len returns the number of interned signatures.
func (t *internTable) len() int { return len(t.sigs) }

// sig returns the signature for an interned id.
func (t *internTable) sig(id int32) ui.Signature { return t.sigs[id] }

// intern returns sig's dense id, assigning the next one on first sight.
func (t *internTable) intern(sig ui.Signature) int32 {
	if id, ok := t.ids[sig]; ok {
		return id
	}
	id := int32(len(t.sigs))
	t.ids[sig] = id
	t.sigs = append(t.sigs, sig)
	if int(id) >= t.stride {
		t.grow()
	}
	t.match[int(id)*t.stride+int(id)] = 1
	return id
}

// grow re-lays the match matrix out with a doubled stride, preserving every
// cached verdict. Amortised over interning, growth is O(1) per signature.
func (t *internTable) grow() {
	newStride := t.stride * 2
	if newStride < 16 {
		newStride = 16
	}
	for newStride <= len(t.sigs) {
		newStride *= 2
	}
	next := make([]int8, newStride*newStride)
	for a := 0; a < t.stride; a++ {
		copy(next[a*newStride:a*newStride+t.stride], t.match[a*t.stride:(a+1)*t.stride])
	}
	t.match, t.stride = next, newStride
}

// matches reports whether the interned screens a and b count as "the same"
// under the table's judge, consulting it only on the first query for the
// pair. Identical ids match without consulting anything, mirroring
// FindSpace's per-call cache.
func (t *internTable) matches(a, b int32) bool {
	if a == b {
		return true
	}
	i := int(a)*t.stride + int(b)
	v := t.match[i]
	if v == 0 {
		if t.judge(t, a, b) {
			v = 1
		} else {
			v = -1
		}
		t.match[i] = v
		t.match[int(b)*t.stride+int(a)] = v
	}
	return v == 1
}
