package graph

import (
	"math"
	"testing"

	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

func sig(i int) ui.Signature { return ui.Signature(i + 1) }

func TestBuilderProbabilities(t *testing.T) {
	b := NewBuilder()
	// From vertex 0: three transitions to 1, one to 2.
	for i := 0; i < 3; i++ {
		b.Add(sig(0), sig(1))
	}
	b.Add(sig(0), sig(2))
	g := b.Graph()
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	v0, _ := g.VertexOf(sig(0))
	v1, _ := g.VertexOf(sig(1))
	v2, _ := g.VertexOf(sig(2))
	if p := g.P(v0, v1); math.Abs(p-0.75) > 1e-9 {
		t.Fatalf("P(0,1) = %v, want 0.75", p)
	}
	if p := g.P(v0, v2); math.Abs(p-0.25) > 1e-9 {
		t.Fatalf("P(0,2) = %v, want 0.25", p)
	}
	if p := g.P(v1, v0); p != 0 {
		t.Fatalf("P(1,0) = %v, want 0", p)
	}
}

func TestAddTraceSkipsEnforcedAndLaunch(t *testing.T) {
	var l trace.Log
	l.Append(trace.Event{Action: trace.Action{Kind: trace.ActionLaunch}, To: sig(0)})
	l.Append(trace.Event{Action: trace.Action{Kind: trace.ActionTap}, From: sig(0), To: sig(1)})
	l.Append(trace.Event{Action: trace.Action{Kind: trace.ActionBack}, From: sig(1), To: sig(0), Enforced: true})
	b := NewBuilder()
	b.AddTrace(&l)
	g := b.Graph()
	if g.N() != 2 {
		t.Fatalf("N = %d, want 2", g.N())
	}
	v0, _ := g.VertexOf(sig(0))
	v1, _ := g.VertexOf(sig(1))
	if g.P(v1, v0) != 0 {
		t.Fatal("enforced transitions must not enter the graph")
	}
	if g.P(v0, v1) != 1 {
		t.Fatal("tool transition missing")
	}
}

// twoCliques builds two k-cliques joined by a single directed edge pair with
// the given cross count per direction, each internal edge observed `internal`
// times.
func twoCliques(k, internal, cross int) (*Graph, []int, []int) {
	b := NewBuilder()
	for c := 0; c < 2; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				for n := 0; n < internal; n++ {
					b.Add(sig(base+i), sig(base+j))
				}
			}
		}
	}
	for n := 0; n < cross; n++ {
		b.Add(sig(0), sig(k))
		b.Add(sig(k), sig(0))
	}
	g := b.Graph()
	var g1, g2 []int
	for i := 0; i < k; i++ {
		v, _ := g.VertexOf(sig(i))
		g1 = append(g1, v)
		w, _ := g.VertexOf(sig(k + i))
		g2 = append(g2, w)
	}
	return g, g1, g2
}

func TestConductanceLooseCoupling(t *testing.T) {
	g, g1, g2 := twoCliques(6, 10, 1)
	cross := g.ConductanceSets(g1, g2)
	if cross > 0.02 {
		t.Fatalf("cross conductance = %v, want ≈0 for loosely coupled cliques", cross)
	}
	// Internal split of one clique must have far higher conductance.
	internal := g.ConductanceSets(g1[:3], g1[3:])
	if internal < 10*cross {
		t.Fatalf("internal %v should dwarf cross %v", internal, cross)
	}
}

func TestVolumeDefinition(t *testing.T) {
	// Two vertices: a -> b with probability 1 (only edge).
	b := NewBuilder()
	b.Add(sig(0), sig(1))
	g := b.Graph()
	va, _ := g.VertexOf(sig(0))
	in := make([]bool, g.N())
	in[va] = true
	// vol({a}) = Σ_{i∈Gx,j∉Gx} (p(j,i) − p(i,j)) + 2·0 = −1.
	if v := g.Volume(in); math.Abs(v-(-1)) > 1e-9 {
		t.Fatalf("Volume = %v, want -1", v)
	}
}

func TestConductanceDisjointEmpty(t *testing.T) {
	g, g1, g2 := twoCliques(4, 5, 1)
	// Empty against non-empty: zero cut and zero volume -> 0.
	if c := g.Conductance(make([]bool, g.N()), g.members(g2)); c != 0 {
		t.Fatalf("empty-set conductance = %v", c)
	}
	_ = g1
}

func TestOfflinePartitionTwoCliques(t *testing.T) {
	g, g1, g2 := twoCliques(6, 10, 1)
	p := OfflinePartition(g, DefaultPartitionOptions())
	if p.GroupCount() != 2 {
		t.Fatalf("groups = %d, want 2", p.GroupCount())
	}
	// All of g1 together, all of g2 together.
	first := p.Assign[g1[0]]
	for _, v := range g1 {
		if p.Assign[v] != first {
			t.Fatalf("clique 1 split: %v", p.Assign)
		}
	}
	second := p.Assign[g2[0]]
	if second == first {
		t.Fatal("cliques merged despite loose coupling")
	}
	for _, v := range g2 {
		if p.Assign[v] != second {
			t.Fatalf("clique 2 split: %v", p.Assign)
		}
	}
}

func TestOfflinePartitionTightCouplingMerges(t *testing.T) {
	// Heavy cross traffic: should collapse into one group.
	g, _, _ := twoCliques(4, 2, 40)
	p := OfflinePartition(g, DefaultPartitionOptions())
	if p.GroupCount() != 1 {
		t.Fatalf("groups = %d, want 1 for tightly coupled cliques", p.GroupCount())
	}
}

func TestOfflinePartitionEmpty(t *testing.T) {
	p := OfflinePartition(NewBuilder().Graph(), DefaultPartitionOptions())
	if p.GroupCount() != 0 {
		t.Fatalf("groups = %d, want 0", p.GroupCount())
	}
}

func TestOfflinePartitionDeterminism(t *testing.T) {
	mk := func() Partition {
		g, _, _ := twoCliques(5, 3, 1)
		return OfflinePartition(g, DefaultPartitionOptions())
	}
	a, b := mk(), mk()
	if len(a.Assign) != len(b.Assign) {
		t.Fatal("nondeterministic partition size")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("nondeterministic partition")
		}
	}
}

func TestMaxPairwiseConductance(t *testing.T) {
	g, g1, g2 := twoCliques(6, 10, 1)
	p := Partition{Groups: [][]int{g1, g2}, Assign: make([]int, g.N())}
	got := PairwiseConductance(g, p.Groups)
	fwd, back := g.ConductanceSets(g1, g2), g.ConductanceSets(g2, g1)
	if got.Pairs != 2 {
		t.Fatalf("pairs = %d, want 2 ordered pairs", got.Pairs)
	}
	if want := math.Max(fwd, back); math.Abs(got.Max-want) > 1e-12 {
		t.Fatalf("max = %v, want %v", got.Max, want)
	}
	if want := (fwd + back) / 2; math.Abs(got.Mean-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got.Mean, want)
	}
	if empty := PairwiseConductance(g, p.Groups[:1]); empty != (Coupling{}) {
		t.Fatalf("one group has no pairs, got %+v", empty)
	}
}

// TestTheorem1FrequencySeparation validates the paper's Theorem 1 on a
// sampled random walk: after O(n² log n) samples on two n-cliques joined by
// a low-probability edge, every internal edge's observed frequency exceeds
// the cross edge's.
func TestTheorem1FrequencySeparation(t *testing.T) {
	const n = 8
	const alpha = 20.0
	rng := sim.NewRNG(11)
	steps := int(float64(n*n) * math.Log(float64(n)) * 40)

	counts := make(map[[2]int]int)
	fromCounts := make(map[int]int)
	cur := 0
	vertexClique := func(v int) int { return v / n }
	for i := 0; i < steps; i++ {
		// Uniform over the n-1 internal neighbours, except the bridge
		// vertices (0 and n) also carry the cross edge at probability
		// 1/(alpha·n).
		var next int
		isBridge := cur == 0 || cur == n
		if isBridge && rng.Float64() < 1/(alpha*float64(n)) {
			if cur == 0 {
				next = n
			} else {
				next = 0
			}
		} else {
			c := vertexClique(cur)
			for {
				next = c*n + rng.Intn(n)
				if next != cur {
					break
				}
			}
		}
		counts[[2]int{cur, next}]++
		fromCounts[cur]++
		cur = next
	}

	crossFreq := float64(counts[[2]int{0, n}]) / math.Max(float64(fromCounts[0]), 1)
	minInternal := math.Inf(1)
	for e, c := range counts {
		if vertexClique(e[0]) != vertexClique(e[1]) {
			continue
		}
		f := float64(c) / float64(fromCounts[e[0]])
		if f < minInternal {
			minInternal = f
		}
	}
	if !(minInternal > crossFreq) {
		t.Fatalf("Theorem 1 separation failed: min internal freq %v <= cross freq %v", minInternal, crossFreq)
	}

	// And the offline partitioner recovers the two cliques from the
	// sampled walk.
	b := NewBuilder()
	for e, c := range counts {
		for i := 0; i < c; i++ {
			b.Add(sig(e[0]), sig(e[1]))
		}
	}
	g := b.Graph()
	p := OfflinePartition(g, DefaultPartitionOptions())
	if p.GroupCount() != 2 {
		t.Fatalf("partition found %d groups, want the 2 cliques", p.GroupCount())
	}
}
