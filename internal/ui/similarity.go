package ui

import "slices"

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
func Similarity(a, b *Node) float64 { return Dice(Paths(a), Paths(b)) }

// PathCount is one entry of a PathVector: the hash of an abstract
// root-to-node path and how many nodes end it.
type PathCount struct {
	Key   uint64
	Count int
}

// PathVector is a hierarchy's path multiset, sorted by Key. Computing it
// once per tree lets repeated comparisons run as a merge of two slices.
type PathVector []PathCount

// Paths returns root's path multiset; a nil root has an empty one.
func Paths(root *Node) PathVector {
	if root == nil {
		return nil
	}
	keys := appendPathKeys(make([]uint64, 0, 64), root, 0)
	slices.Sort(keys)
	out := make(PathVector, 0, len(keys))
	for _, k := range keys {
		if n := len(out); n > 0 && out[n-1].Key == k {
			out[n-1].Count++
			continue
		}
		out = append(out, PathCount{Key: k, Count: 1})
	}
	return out
}

// appendPathKeys appends the path hash of n and of every node below it; a
// node's hash is the FNV-1a of its parent's hash bytes, its class, '#' and
// its resource ID.
func appendPathKeys(keys []uint64, n *Node, prefix uint64) []uint64 {
	key := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		key = fnvByte(key, byte(prefix>>(8*i)))
	}
	key = fnvString(fnvByte(fnvString(key, n.Class), '#'), n.ResourceID)
	keys = append(keys, key)
	for _, ch := range n.Children {
		keys = appendPathKeys(keys, ch, key)
	}
	return keys
}

// Dice returns the Dice coefficient of two path multisets: twice the
// shared count over the total count, 1 when both are empty.
//
//lint:hotpath
func Dice(a, b PathVector) float64 {
	var inter, total int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			total += a[i].Count
			i++
		case b[j].Key < a[i].Key:
			total += b[j].Count
			j++
		default:
			inter += min(a[i].Count, b[j].Count)
			total += a[i].Count + b[j].Count
			i, j = i+1, j+1
		}
	}
	for ; i < len(a); i++ {
		total += a[i].Count
	}
	for ; j < len(b); j++ {
		total += b[j].Count
	}
	if total == 0 {
		return 1
	}
	return float64(2*inter) / float64(total)
}

// Shape is what ShapeSimilarity reads of a screen: its activity and its
// path multiset.
type Shape struct {
	Activity string
	Paths    PathVector
}

// ShapeOf returns s's shape, nil for a nil screen.
func ShapeOf(s *Screen) *Shape {
	if s == nil {
		return nil
	}
	return &Shape{Activity: s.Activity, Paths: Paths(s.Root)}
}

// ShapeSimilarity compares two screens by their shapes, treating a
// differing activity name as an immediate mismatch — the abstraction keys on
// activity first.
//
//lint:hotpath
func ShapeSimilarity(a, b *Shape) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	if a.Activity != b.Activity {
		return 0
	}
	return Dice(a.Paths, b.Paths)
}
