package ui

import "sort"

// Similarity computes the tree similarity of two abstracted UI hierarchies in
// [0, 1]. It follows the spirit of the comparator used by CountIn in
// Algorithm 1 (tree similarity of abstract hierarchies, after [66]): each
// hierarchy is decomposed into the multiset of its abstract root-to-node
// paths, and the similarity is the Dice coefficient of the two multisets.
//
// Dice over path multisets is cheap (linear in tree size), symmetric, equals
// 1 exactly for structurally identical trees regardless of text, and degrades
// smoothly when list rows are added/removed — the dominant source of benign
// structural variation in mobile UIs.
func Similarity(a, b *Node) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	pa := pathMultiset(a)
	pb := pathMultiset(b)
	if len(pa) == 0 && len(pb) == 0 {
		return 1
	}
	var inter, total int
	for k, ca := range pa {
		total += ca
		if cb, ok := pb[k]; ok {
			if cb < ca {
				inter += cb
			} else {
				inter += ca
			}
		}
	}
	for _, cb := range pb {
		total += cb
	}
	if total == 0 {
		return 1
	}
	return float64(2*inter) / float64(total)
}

// pathMultiset maps the hash of each abstract root-to-node path to its
// number of occurrences.
func pathMultiset(root *Node) map[uint64]int {
	out := make(map[uint64]int)
	var rec func(n *Node, prefix uint64)
	rec = func(n *Node, prefix uint64) {
		key := uint64(fnvOffset64)
		for i := 0; i < 8; i++ {
			key = fnvByte(key, byte(prefix>>(8*i)))
		}
		key = fnvString(fnvByte(fnvString(key, n.Class), '#'), n.ResourceID)
		out[key]++
		for _, ch := range n.Children {
			rec(ch, key)
		}
	}
	rec(root, 0)
	return out
}

// ScreenSimilarity compares two screens, treating a differing activity name
// as an immediate mismatch — the abstraction keys on activity first.
func ScreenSimilarity(a, b *Screen) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	if a.Activity != b.Activity {
		return 0
	}
	return Similarity(a.Root, b.Root)
}

// TopKSimilar returns the indexes of the k screens in candidates most similar
// to target, most similar first. Ties break toward lower index for
// determinism.
func TopKSimilar(target *Screen, candidates []*Screen, k int) []int {
	type scored struct {
		idx int
		sim float64
	}
	scoredAll := make([]scored, len(candidates))
	for i, c := range candidates {
		scoredAll[i] = scored{i, ScreenSimilarity(target, c)}
	}
	sort.SliceStable(scoredAll, func(i, j int) bool { return scoredAll[i].sim > scoredAll[j].sim })
	if k > len(scoredAll) {
		k = len(scoredAll)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = scoredAll[i].idx
	}
	return out
}
