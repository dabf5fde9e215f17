package graph

import "taopt/internal/trace"

// Partition is a disjoint grouping of a graph's vertices into subspaces.
type Partition struct {
	// Groups holds vertex indexes per subspace, each sorted ascending;
	// groups are ordered by their smallest vertex.
	Groups [][]int
	// Assign maps vertex -> group index.
	Assign []int
}

// GroupCount returns the number of subspaces.
func (p Partition) GroupCount() int { return len(p.Groups) }

// PartitionOptions tunes the offline partitioner.
type PartitionOptions struct {
	// MaxCoupling is the flow threshold below which two regions count as
	// loosely coupled and are NOT merged. Higher values merge more.
	MaxCoupling float64
	// MinGroupSize: groups smaller than this are folded into their most
	// coupled neighbour at the end (singleton UI states are rarely a
	// functionality of their own).
	MinGroupSize int
}

// DefaultPartitionOptions matches the conservative setting described in
// Section 3.1: "requiring both low inter-region transition probabilities and
// high internal cohesion before partitioning".
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions{MaxCoupling: 0.08, MinGroupSize: 2}
}

// OfflinePartition computes a conservative min-conductance partition of g by
// agglomerative merging: every vertex starts alone, and in each round the two
// regions with the strongest normalised mutual transition probability merge;
// merging stops once every remaining inter-region coupling is below
// MaxCoupling. The exact MC-GPP optimum is NP-hard (Section 4.1); this greedy
// heuristic is the study instrument, not the contribution.
//
// Ties go to the lowest (a, b) root pair, and in the fold phase to the
// lowest neighbour root. Every flow and weight is summed in edge order
// (source vertex ascending, then Out position), so each merge compares the
// same floating-point values whichever regions merged before it.
func OfflinePartition(g *Graph, opts PartitionOptions) Partition {
	n := g.N()
	if n == 0 {
		return Partition{Assign: []int{}}
	}
	r := newRegions(g)
	for {
		best := pick{lo: -1}
		for x := range r.best {
			if r.parent[x] == x && r.best[x].beats(best) {
				best = r.best[x]
			}
		}
		if best.lo < 0 || best.c < opts.MaxCoupling {
			break
		}
		r.union(best.lo, best.hi)
	}

	// Fold tiny groups into their strongest neighbour, rescanning from the
	// lowest root after every fold.
	if opts.MinGroupSize > 1 {
		for folded := true; folded; {
			folded = false
			for i := 0; i < n && !folded; i++ {
				if r.parent[i] != i || r.size[i] >= opts.MinGroupSize {
					continue
				}
				to, most := -1, 0.0
				for _, f := range r.rows[i] {
					if f.flow > most || (f.flow == most && to >= 0 && f.root < to) {
						to, most = f.root, f.flow
					}
				}
				if to >= 0 {
					r.union(i, to)
					folded = true
				}
			}
		}
	}

	// Materialise groups in order of their smallest vertex.
	p := Partition{Assign: make([]int, n)}
	index := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	for v := 0; v < n; v++ {
		root := r.find(v)
		if index[root] < 0 {
			index[root] = len(p.Groups)
			p.Groups = append(p.Groups, nil)
		}
		gi := index[root]
		p.Groups[gi] = append(p.Groups[gi], v)
		p.Assign[v] = gi
	}
	return p
}

// regions is the partitioner's union-find over vertices plus, per region
// root, the bookkeeping a merge round reads: the region's out-weight, its
// flow to every neighbouring region and its strongest coupling. A union
// re-sums only the merged region's row from its incident edges and patches
// that one entry in each neighbour's row; no other region's sums change.
type regions struct {
	// Edges are numbered in edge order: source vertex ascending, then
	// position in Out. Sums follow that order so they are bit-identical to
	// a sweep over the whole graph.
	src, dst []int32
	p        []float64

	parent, size []int
	// Per region root:
	weight []float64 // sum of P over the region's out-edges
	edges  [][]int32 // ids of edges with an endpoint in the region, ascending
	rows   [][]flowTo
	best   []pick

	slot []int // scratch: neighbour root -> index in the row being built, or -1
}

// flowTo is one entry of a region's row: a neighbouring region and the
// total P of the edges between the two, both directions.
type flowTo struct {
	root int
	flow float64
}

// pick is a candidate merge: the region pair (lo < hi) and its coupling.
// lo is -1 when there is none.
type pick struct {
	lo, hi int
	c      float64
}

// beats reports whether p is a better merge than q: a positive coupling
// above q's, or equal to it on a lower (lo, hi) pair.
func (p pick) beats(q pick) bool {
	if p.lo < 0 || !(p.c > 0) {
		return false
	}
	if q.lo < 0 || p.c > q.c {
		return true
	}
	return p.c == q.c && (p.lo < q.lo || p.lo == q.lo && p.hi < q.hi)
}

func newRegions(g *Graph) *regions {
	n := g.N()
	r := &regions{
		parent: make([]int, n),
		size:   make([]int, n),
		weight: make([]float64, n),
		edges:  make([][]int32, n),
		rows:   make([][]flowTo, n),
		best:   make([]pick, n),
		slot:   make([]int, n),
	}
	for v, out := range g.Out {
		for _, e := range out {
			id := int32(len(r.p))
			r.src = append(r.src, int32(v))
			r.dst = append(r.dst, int32(e.To))
			r.p = append(r.p, e.P)
			r.edges[v] = append(r.edges[v], id)
			if e.To != v {
				r.edges[e.To] = append(r.edges[e.To], id)
			}
		}
	}
	for v := range r.parent {
		r.parent[v] = v
		r.size[v] = 1
		r.slot[v] = -1
	}
	for v := range r.parent {
		r.sum(v)
	}
	for v := range r.parent {
		r.best[v] = r.strongest(v)
	}
	return r
}

func (r *regions) find(x int) int {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

// union merges the regions of a and b under the larger one's root, then
// brings the merged region's row and its neighbours' entries for it up to
// date.
func (r *regions) union(a, b int) {
	ra, rb := r.find(a), r.find(b)
	if ra == rb {
		return
	}
	if r.size[ra] < r.size[rb] {
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	r.size[ra] += r.size[rb]
	r.edges[ra] = mergeIDs(r.edges[ra], r.edges[rb])
	r.edges[rb], r.rows[rb] = nil, nil
	r.sum(ra)
	for _, f := range r.rows[ra] {
		row := r.rows[f.root]
		found := false
		for i := 0; i < len(row); i++ {
			switch row[i].root {
			case ra:
				row[i].flow, found = f.flow, true
			case rb:
				row[i] = row[len(row)-1]
				row = row[:len(row)-1]
				i--
			}
		}
		if !found {
			row = append(row, flowTo{ra, f.flow})
		}
		r.rows[f.root] = row
		r.best[f.root] = r.strongest(f.root)
	}
	r.best[ra] = r.strongest(ra)
}

// sum recomputes root m's weight and row from its incident edges in edge
// order.
func (r *regions) sum(m int) {
	w := 0.0
	row := r.rows[m][:0]
	for _, e := range r.edges[m] {
		s, d := r.find(int(r.src[e])), r.find(int(r.dst[e]))
		other := d
		if s == m {
			w += r.p[e]
		} else {
			other = s
		}
		if other == m {
			continue
		}
		if r.slot[other] < 0 {
			r.slot[other] = len(row)
			row = append(row, flowTo{root: other})
		}
		row[r.slot[other]].flow += r.p[e]
	}
	for _, f := range row {
		r.slot[f.root] = -1
	}
	r.weight[m], r.rows[m] = w, row
}

// strongest returns root x's best merge among its neighbours.
func (r *regions) strongest(x int) pick {
	best := pick{lo: -1}
	for _, f := range r.rows[x] {
		c := pick{lo: x, hi: f.root}
		if c.hi < c.lo {
			c.lo, c.hi = c.hi, c.lo
		}
		c.c = coupling(f.flow, r.weight[c.lo], r.weight[c.hi])
		if c.beats(best) {
			best = c
		}
	}
	return best
}

// coupling normalises the flow between two regions by the lighter one's
// out-weight.
func coupling(f, wa, wb float64) float64 {
	den := wa
	if wb < den {
		den = wb
	}
	if den <= 0 {
		return 0
	}
	return f / den
}

// mergeIDs merges two ascending edge-id lists, keeping one copy of the ids
// both hold (the edges between the two regions).
func mergeIDs(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ExploredBy returns, per group of p, the set of indexes of logs that
// explored it (Section 3.1's "Measuring overlaps of UI subspace
// exploration"). A log explores a group if its tool-caused visits reach at
// least two of the group's screens, or all of a smaller one: touching a
// single screen of a region is passing by, not exploring. g must be the
// graph p partitions.
func (p Partition) ExploredBy(g *Graph, logs []*trace.Log) []map[int]bool {
	visited := make([]map[int]bool, len(logs)) // log -> vertex set
	for i, l := range logs {
		visited[i] = make(map[int]bool)
		for _, ev := range l.Events() {
			if ev.Enforced {
				continue
			}
			if v, ok := g.VertexOf(ev.To); ok {
				visited[i][v] = true
			}
		}
	}
	explored := make([]map[int]bool, len(p.Groups))
	for gi, grp := range p.Groups {
		need := min(2, len(grp))
		per := make(map[int]bool)
		for i := range visited {
			count := 0
			for _, v := range grp {
				if visited[i][v] {
					if count++; count >= need {
						break
					}
				}
			}
			if count >= need {
				per[i] = true
			}
		}
		explored[gi] = per
	}
	return explored
}

// Coupling summarises φ(Gi, Gj) over the ordered pairs of distinct groups.
type Coupling struct {
	Mean, Max float64
	Pairs     int
}

// PairwiseConductance returns the mean and the maximum φ(Gi, Gj) over every
// ordered pair of distinct groups, summed in group order, and the pair
// count. Over a partition's groups the maximum is the MC-GPP objective of
// Eq. 3; over an app's functionalities it measures global sparsity.
func PairwiseConductance(g *Graph, groups [][]int) Coupling {
	var c Coupling
	sum := 0.0
	for i := range groups {
		for j := range groups {
			if i == j {
				continue
			}
			phi := g.ConductanceSets(groups[i], groups[j])
			sum += phi
			if phi > c.Max {
				c.Max = phi
			}
			c.Pairs++
		}
	}
	if c.Pairs > 0 {
		c.Mean = sum / float64(c.Pairs)
	}
	return c
}
