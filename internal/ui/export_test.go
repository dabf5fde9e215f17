package ui

// Similarity is the tree similarity of two hierarchies' root nodes: the Dice
// coefficient of their path multisets, as ShapeSimilarity compares them
// without the activity check.
func Similarity(a, b *Node) float64 { return Dice(Paths(a), Paths(b)) }
