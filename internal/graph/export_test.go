package graph

// P returns the empirical probability of the edge i -> j (0 if absent).
func (g *Graph) P(i, j int) float64 {
	row := g.Out[i]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case row[mid].To < j:
			lo = mid + 1
		case row[mid].To > j:
			hi = mid
		default:
			return row[mid].P
		}
	}
	return 0
}
