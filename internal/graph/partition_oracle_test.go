package graph_test

import (
	"reflect"
	"sort"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/graph"
	"taopt/internal/harness"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// oraclePartition is the offline partitioner as first written: every merge
// round rebuilds the region flow and weight tables from the edge list and
// scans every region pair in sorted order. OfflinePartition keeps those
// tables incrementally and must reproduce its partitions exactly.
func oraclePartition(g *graph.Graph, opts graph.PartitionOptions) graph.Partition {
	n := g.N()
	if n == 0 {
		return graph.Partition{Assign: []int{}}
	}

	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	type pair struct{ a, b int }
	regionTables := func() (flow map[pair]float64, weight map[int]float64) {
		flow = make(map[pair]float64)
		weight = make(map[int]float64)
		for i := range g.Out {
			ri := find(i)
			for _, e := range g.Out[i] {
				rj := find(e.To)
				weight[ri] += e.P
				if ri != rj {
					k := pair{ri, rj}
					if rj < ri {
						k = pair{rj, ri}
					}
					flow[k] += e.P
				}
			}
		}
		return flow, weight
	}
	sortedKeys := func(flow map[pair]float64) []pair {
		keys := make([]pair, 0, len(flow))
		for k := range flow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		return keys
	}

	coupling := func(f float64, wa, wb float64) float64 {
		den := wa
		if wb < den {
			den = wb
		}
		if den <= 0 {
			return 0
		}
		return f / den
	}

	for {
		flow, weight := regionTables()
		bestA, bestB, bestC := -1, -1, 0.0
		for _, k := range sortedKeys(flow) {
			if c := coupling(flow[k], weight[k.a], weight[k.b]); c > bestC {
				bestA, bestB, bestC = k.a, k.b, c
			}
		}
		if bestA < 0 || bestC < opts.MaxCoupling {
			break
		}
		union(bestA, bestB)
	}

	if opts.MinGroupSize > 1 {
		for {
			flow, _ := regionTables()
			merged := false
			for i := 0; i < n && !merged; i++ {
				r := find(i)
				if r != i || size[r] >= opts.MinGroupSize {
					continue
				}
				bestB, bestF := -1, 0.0
				for _, k := range sortedKeys(flow) {
					other := -1
					if k.a == r {
						other = k.b
					} else if k.b == r {
						other = k.a
					}
					if other >= 0 && flow[k] > bestF {
						bestB, bestF = other, flow[k]
					}
				}
				if bestB >= 0 {
					union(r, bestB)
					merged = true
				}
			}
			if !merged {
				break
			}
		}
	}

	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		byRoot[find(i)] = append(byRoot[find(i)], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })
	p := graph.Partition{Assign: make([]int, n)}
	for gi, r := range roots {
		vs := byRoot[r]
		sort.Ints(vs)
		p.Groups = append(p.Groups, vs)
		for _, v := range vs {
			p.Assign[v] = gi
		}
	}
	return p
}

func checkPartitionAgainstOracle(t *testing.T, what string, g *graph.Graph, opts graph.PartitionOptions) graph.Partition {
	t.Helper()
	got, want := graph.OfflinePartition(g, opts), oraclePartition(g, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%+v): partition differs from the oracle:\n got %v\nwant %v", what, opts, got.Groups, want.Groups)
	}
	return got
}

// partitionSettings are the options the oracle comparison runs under: the
// study's default, a setting that merges almost everything, one that merges
// almost nothing and then folds hard, and no fold at all.
var partitionSettings = []graph.PartitionOptions{
	graph.DefaultPartitionOptions(),
	{MaxCoupling: 0.01, MinGroupSize: 2},
	{MaxCoupling: 0.6, MinGroupSize: 4},
	{MaxCoupling: 0.2, MinGroupSize: 0},
}

// TestOfflinePartitionMatchesOracleOnCatalogApps partitions the combined
// baseline graph of every catalog app — Table 1's input — under Monkey for
// four virtual minutes.
func TestOfflinePartitionMatchesOracleOnCatalogApps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a baseline campaign per catalog app")
	}
	for _, name := range apps.Names() {
		res, err := harness.Run(harness.RunConfig{
			App: apps.MustLoad(name), Tool: "monkey", Setting: harness.BaselineParallel,
			Duration: 4 * 60 * sim.Duration(1e9), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder()
		for _, l := range res.Traces() {
			b.AddTrace(l)
		}
		g := b.Graph()
		for _, opts := range partitionSettings {
			checkPartitionAgainstOracle(t, name, g, opts)
		}
	}
}

// randomGraph draws a graph of up to 60 vertices. Half the graphs use
// builder counts, whose probabilities are arbitrary fractions; the other
// half use dyadic probabilities from a four-value set, so exact coupling
// ties are common and the tie rules decide.
func randomGraph(rng *sim.RNG) *graph.Graph {
	n := 1 + rng.Intn(60)
	if rng.Bool(0.5) {
		b := graph.NewBuilder()
		// A ring names every vertex; blocks of span vertices are the
		// regions most further edges stay inside.
		for i := 0; i < n; i++ {
			b.Add(ui.Signature(i+1), ui.Signature((i+1)%n+1))
		}
		span := 1 + rng.Intn(6)
		for e := rng.Intn(8 * n); e > 0; e-- {
			from := rng.Intn(n)
			to := rng.Intn(n)
			if !rng.Bool(0.1) {
				to = (from/span)*span + rng.Intn(span)
				if to >= n {
					to = from
				}
			}
			b.Add(ui.Signature(from+1), ui.Signature(to+1))
		}
		return b.Graph()
	}
	dyadic := []float64{0.125, 0.25, 0.5, 1}
	g := &graph.Graph{Sigs: make([]ui.Signature, n), Out: make([][]graph.Edge, n)}
	for i := 0; i < n; i++ {
		g.Sigs[i] = ui.Signature(i + 1)
		for to := 0; to < n; to++ {
			if rng.Bool(3 / float64(n)) {
				g.Out[i] = append(g.Out[i], graph.Edge{To: to, Count: 1, P: dyadic[rng.Intn(len(dyadic))]})
			}
		}
	}
	return g
}

func TestOfflinePartitionMatchesOracleOnRandomGraphs(t *testing.T) {
	rng := sim.NewRNG(16)
	for i := 0; i < 500; i++ {
		g := randomGraph(rng)
		for _, opts := range partitionSettings {
			checkPartitionAgainstOracle(t, "random graph", g, opts)
		}
	}
}

// tieGraph builds k identical disjoint cliques of size m joined into a ring
// by equal single edges, plus a tail of isolated pairs and singletons: every
// clique pair couples exactly as strongly as every other, and the ring's
// cross couplings tie too.
func tieGraph(k, m int) *graph.Graph {
	n := k*m + 5
	g := &graph.Graph{Sigs: make([]ui.Signature, n), Out: make([][]graph.Edge, n)}
	for i := range g.Sigs {
		g.Sigs[i] = ui.Signature(i + 1)
	}
	add := func(from, to int, p float64) {
		g.Out[from] = append(g.Out[from], graph.Edge{To: to, Count: 1, P: p})
	}
	for c := 0; c < k; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j {
					add(base+i, base+j, 0.25)
				}
			}
		}
		add(base, ((c+1)%k)*m, 0.25)
	}
	// Two singletons hang off the first clique with equal flow, and an
	// isolated pair plus one isolated singleton must stay as they are.
	tail := k * m
	add(tail, 0, 0.5)
	add(tail+1, 0, 0.5)
	add(tail+2, tail+3, 1)
	add(tail+3, tail+2, 1)
	add(tail+4, tail+4, 1)
	for i := range g.Out {
		sort.Slice(g.Out[i], func(a, b int) bool { return g.Out[i][a].To < g.Out[i][b].To })
	}
	return g
}

func TestOfflinePartitionMatchesOracleOnTies(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {3, 3}, {4, 2}, {5, 4}, {8, 3}} {
		g := tieGraph(shape[0], shape[1])
		for _, opts := range append(partitionSettings,
			graph.PartitionOptions{MaxCoupling: 0.25, MinGroupSize: 3},
			graph.PartitionOptions{MaxCoupling: 10, MinGroupSize: 5}) {
			checkPartitionAgainstOracle(t, "tie graph", g, opts)
		}
	}
	// With every coupling capped out, the run is the fold phase alone: the
	// hanging singletons tie on flow to vertex 0 and must fold in the
	// oracle's order.
	p := checkPartitionAgainstOracle(t, "fold ties", tieGraph(3, 1), graph.PartitionOptions{MaxCoupling: 10, MinGroupSize: 2})
	if p.GroupCount() >= 8 {
		t.Fatalf("fold phase merged nothing: %v", p.Groups)
	}
}
