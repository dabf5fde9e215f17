// Package graph implements the paper's graph-theoretic machinery: the
// stochastic directed UI transition graph G = (V, E, P) built from observed
// traces, subgraph volume and conductance as defined in Section 4.1 (Eq. 2),
// and the conservative offline min-conductance partitioner used by the
// preliminary study (Section 3.1) to measure UI-subspace overlap.
package graph

import (
	"fmt"
	"sort"

	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Edge is one observed transition with its empirical probability.
type Edge struct {
	To    int
	Count int
	// P is the empirical probability of taking this edge when leaving the
	// source vertex: Count / out-degree-count of the source.
	P float64
}

// Graph is an immutable stochastic directed graph over abstract UI screens.
type Graph struct {
	// Sigs maps vertex index to abstract screen signature.
	Sigs []ui.Signature
	// Out is the adjacency list; Out[i] is sorted by destination.
	Out [][]Edge
	// outTotal[i] is the number of observed departures from i.
	outTotal []int
	index    map[ui.Signature]int
}

// Builder accumulates transitions into a Graph.
type Builder struct {
	index  map[ui.Signature]int
	sigs   []ui.Signature
	counts []map[int]int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[ui.Signature]int)}
}

func (b *Builder) vertex(sig ui.Signature) int {
	if i, ok := b.index[sig]; ok {
		return i
	}
	i := len(b.sigs)
	b.index[sig] = i
	b.sigs = append(b.sigs, sig)
	b.counts = append(b.counts, make(map[int]int))
	return i
}

// Add records one observed transition from -> to.
func (b *Builder) Add(from, to ui.Signature) {
	f := b.vertex(from)
	t := b.vertex(to)
	b.counts[f][t]++
}

// AddTrace folds a transition log into the builder. Launch events introduce
// their destination vertex but no edge; enforced (TaOPT-injected) transitions
// are skipped so the graph reflects the tool's own behaviour.
func (b *Builder) AddTrace(l *trace.Log) {
	for _, ev := range l.Events() {
		if ev.Enforced {
			continue
		}
		if ev.Action.Kind == trace.ActionLaunch {
			b.vertex(ev.To)
			continue
		}
		b.Add(ev.From, ev.To)
	}
}

// Graph freezes the builder into an immutable graph with empirical edge
// probabilities.
func (b *Builder) Graph() *Graph {
	g := &Graph{
		Sigs:     append([]ui.Signature(nil), b.sigs...),
		Out:      make([][]Edge, len(b.sigs)),
		outTotal: make([]int, len(b.sigs)),
		index:    make(map[ui.Signature]int, len(b.sigs)),
	}
	for sig, i := range b.index {
		g.index[sig] = i
	}
	for i, row := range b.counts {
		total := 0
		for _, c := range row {
			total += c
		}
		g.outTotal[i] = total
		edges := make([]Edge, 0, len(row))
		for to, c := range row {
			edges = append(edges, Edge{To: to, Count: c, P: float64(c) / float64(total)})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].To < edges[b].To })
		g.Out[i] = edges
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Sigs) }

// VertexOf returns the index for sig and whether it exists.
func (g *Graph) VertexOf(sig ui.Signature) (int, bool) {
	i, ok := g.index[sig]
	return i, ok
}

// Volume computes vol(Gx) per Section 4.1:
//
//	vol(Gx) = Σ_{i∈Gx, j∉Gx} (p(j,i) − p(i,j)) + 2·Σ_{i∈Gx, j∈Gx} p(i,j)
//
// in is the membership indicator over vertices.
func (g *Graph) Volume(in []bool) float64 {
	if len(in) != g.N() {
		panic(fmt.Sprintf("graph: membership length %d != %d vertices", len(in), g.N()))
	}
	var boundary, internal float64
	for i := range g.Out {
		for _, e := range g.Out[i] {
			switch {
			case in[i] && in[e.To]:
				internal += e.P
			case in[i] && !in[e.To]:
				boundary -= e.P // p(i,j), i inside, j outside
			case !in[i] && in[e.To]:
				boundary += e.P // p(j,i), j outside, i inside
			}
		}
	}
	return boundary + 2*internal
}

// Conductance computes φ(G1, G2) per Eq. 2: the probability mass of edges
// from G1 to G2 normalised by the smaller volume. G1 and G2 are membership
// indicators and must be disjoint.
func (g *Graph) Conductance(g1, g2 []bool) float64 {
	if len(g1) != g.N() || len(g2) != g.N() {
		panic("graph: membership length mismatch")
	}
	var cut float64
	for i := range g.Out {
		if !g1[i] {
			continue
		}
		for _, e := range g.Out[i] {
			if g2[e.To] {
				cut += e.P
			}
		}
	}
	v1, v2 := abs(g.Volume(g1)), abs(g.Volume(g2))
	den := v1
	if v2 < den {
		den = v2
	}
	if den == 0 {
		if cut == 0 {
			return 0
		}
		return 1
	}
	return cut / den
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// members converts a vertex list to a membership indicator.
func (g *Graph) members(set []int) []bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	return in
}

// ConductanceSets is Conductance over vertex-index sets.
func (g *Graph) ConductanceSets(a, b []int) float64 {
	return g.Conductance(g.members(a), g.members(b))
}
