package sim

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.PermInto(make([]int, n)) }

// WeightedIndex picks an index with probability proportional to weights[i].
// All-zero or negative totals fall back to uniform choice. It panics on an
// empty slice.
func (r *RNG) WeightedIndex(weights []float64) int {
	if len(weights) == 0 {
		panic("sim: WeightedIndex with no weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
