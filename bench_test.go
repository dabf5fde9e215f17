package taopt

// Benchmark harness: one benchmark per table and figure of the paper (see
// DESIGN.md's per-experiment index), plus ablation benches for the design
// choices DESIGN.md calls out and micro-benchmarks for the hot algorithms.
//
// The per-experiment benches run scaled-down campaigns (two small apps,
// minutes-long budgets) so `go test -bench=.` finishes in reasonable time;
// the full-scale regeneration lives in cmd/experiments. Each bench reports
// its experiment's headline statistic via b.ReportMetric, so the bench
// output doubles as a quick-look reproduction check.

import (
	"fmt"
	"math"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/core"
	"taopt/internal/graph"
	"taopt/internal/harness"
	"taopt/internal/metrics"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// benchApps are small enough for minutes-scale campaigns.
var benchApps = []string{"Filters For Selfie", "Marvel Comics"}

const benchMinutes = 12

func mustCell(tb testing.TB, c *harness.Campaign, app, tool string, s harness.Setting) *harness.CellSummary {
	tb.Helper()
	cell, err := c.Cell(app, tool, s)
	if err != nil {
		tb.Fatal(err)
	}
	return cell
}

func benchCampaign(seed int64) *harness.Campaign {
	return harness.NewCampaign(harness.CampaignConfig{
		Apps:     benchApps,
		Tools:    []string{"monkey", "ape", "wctester"},
		Duration: benchMinutes * Minute,
		Seed:     seed,
	})
}

// BenchmarkFig3IntrinsicRandomness regenerates Figure 3's data: the AJS of
// covered methods across uncoordinated instances at the end of the run.
func BenchmarkFig3IntrinsicRandomness(b *testing.B) {
	var finalAJS float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var sum float64
		var n int
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				cell := mustCell(b, c, app, tool, harness.BaselineParallel)
				if len(cell.Timeline) > 0 {
					sum += cell.Timeline[len(cell.Timeline)-1].AJS
					n++
				}
			}
		}
		finalAJS = sum / float64(n)
	}
	b.ReportMetric(finalAJS, "final-AJS")
}

// BenchmarkTable1SubspaceOverlap regenerates Table 1: the fraction of
// offline-identified UI subspaces explored by more than one instance.
func BenchmarkTable1SubspaceOverlap(b *testing.B) {
	var sharedFrac float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		total, shared := 0, 0
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				cell := mustCell(b, c, app, tool, harness.BaselineParallel)
				for k, v := range cell.OverlapHist {
					total += v
					if k >= 1 {
						shared += v
					}
				}
			}
		}
		if total > 0 {
			sharedFrac = float64(shared) / float64(total)
		}
	}
	b.ReportMetric(100*sharedFrac, "%-subspaces-shared")
}

// BenchmarkTable2ActivityPartition regenerates Table 2: WCTester's coverage
// change under activity-granularity parallelization.
func BenchmarkTable2ActivityPartition(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var base, par float64
		for _, app := range c.Apps() {
			base += float64(mustCell(b, c, app, "wctester", harness.BaselineParallel).Union)
			par += float64(mustCell(b, c, app, "wctester", harness.ActivityPartition).Union)
		}
		delta = 100 * (par - base) / base
	}
	b.ReportMetric(delta, "%-coverage-change")
}

// BenchmarkFig5DurationSaved regenerates Figure 5: testing duration saved by
// TaOPT's duration-constrained mode.
func BenchmarkFig5DurationSaved(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var vals []float64
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base := mustCell(b, c, app, tool, harness.BaselineParallel)
				opt := mustCell(b, c, app, tool, harness.TaOPTDuration)
				vals = append(vals, 100*metrics.DurationSaved(opt.Timeline, base.Union, benchMinutes*Minute))
			}
		}
		saved = metrics.Summarize(vals).Mean
	}
	b.ReportMetric(saved, "%-duration-saved")
}

// BenchmarkFig6ResourceSaved regenerates Figure 6: machine time saved by
// TaOPT's resource-constrained mode.
func BenchmarkFig6ResourceSaved(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		budget := sim.Duration(harness.DefaultInstances) * benchMinutes * Minute
		var vals []float64
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base := mustCell(b, c, app, tool, harness.BaselineParallel)
				opt := mustCell(b, c, app, tool, harness.TaOPTResource)
				vals = append(vals, 100*metrics.ResourceSaved(opt.Timeline, base.Union, budget))
			}
		}
		saved = metrics.Summarize(vals).Mean
	}
	b.ReportMetric(saved, "%-machine-time-saved")
}

// BenchmarkTable4Coverage regenerates Table 4: cumulative coverage change
// under TaOPT's duration-constrained mode.
func BenchmarkTable4Coverage(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var base, opt float64
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base += float64(mustCell(b, c, app, tool, harness.BaselineParallel).Union)
				opt += float64(mustCell(b, c, app, tool, harness.TaOPTDuration).Union)
			}
		}
		delta = 100 * (opt - base) / base
	}
	b.ReportMetric(delta, "%-coverage-change")
}

// BenchmarkTable5Crashes regenerates Table 5: unique crashes under TaOPT vs
// baseline (ratio ×100).
func BenchmarkTable5Crashes(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var base, opt float64
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base += float64(mustCell(b, c, app, tool, harness.BaselineParallel).UniqueCrashes)
				opt += float64(mustCell(b, c, app, tool, harness.TaOPTDuration).UniqueCrashes)
			}
		}
		ratio = opt / math.Max(base, 1)
	}
	b.ReportMetric(ratio, "crash-ratio")
}

// BenchmarkTable6UIOverlap regenerates Table 6: reduction in the average
// number of occurrences of distinct UIs.
func BenchmarkTable6UIOverlap(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var base, opt float64
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base += mustCell(b, c, app, tool, harness.BaselineParallel).UIOccAverage
				opt += mustCell(b, c, app, tool, harness.TaOPTDuration).UIOccAverage
			}
		}
		reduction = 100 * (base - opt) / base
	}
	b.ReportMetric(reduction, "%-overlap-reduction")
}

// BenchmarkSingleLongRun regenerates the RQ4 aside: one instance using the
// whole machine budget vs the parallel baseline.
func BenchmarkSingleLongRun(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var single, base float64
		for _, app := range c.Apps() {
			single += float64(mustCell(b, c, app, "monkey", harness.SingleLong).Union)
			base += float64(mustCell(b, c, app, "monkey", harness.BaselineParallel).Union)
		}
		ratio = single / base
	}
	b.ReportMetric(ratio, "single/parallel-coverage")
}

// BenchmarkBehaviorPreservation regenerates the RQ5 aside: Jaccard between
// TaOPT's and the baseline's covered-method sets.
func BenchmarkBehaviorPreservation(b *testing.B) {
	var j float64
	for i := 0; i < b.N; i++ {
		c := benchCampaign(int64(i + 1))
		var sum float64
		var n int
		for _, app := range c.Apps() {
			for _, tool := range c.Tools() {
				base := mustCell(b, c, app, tool, harness.BaselineParallel)
				opt := mustCell(b, c, app, tool, harness.TaOPTDuration)
				jj, _ := metrics.BehaviorPreservation(base.UnionSet, opt.UnionSet)
				sum += jj
				n++
			}
		}
		j = sum / float64(n)
	}
	b.ReportMetric(j, "jaccard")
}

// BenchmarkTheorem1Sampling validates Theorem 1's O(n² log n) bound: it
// samples a random walk on two n-cliques joined by a weak edge and reports
// the ratio between the weakest internal edge frequency and the cross-edge
// frequency (>1 means correct separation).
func BenchmarkTheorem1Sampling(b *testing.B) {
	const n = 10
	const alpha = 25.0
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(int64(i + 1))
		steps := int(float64(n*n) * math.Log(float64(n)) * 30)
		counts := make(map[[2]int]int)
		from := make(map[int]int)
		cur := 0
		for s := 0; s < steps; s++ {
			var next int
			if (cur == 0 || cur == n) && rng.Float64() < 1/(alpha*float64(n)) {
				next = n - cur // bridge
			} else {
				c := cur / n
				for {
					next = c*n + rng.Intn(n)
					if next != cur {
						break
					}
				}
			}
			counts[[2]int{cur, next}]++
			from[cur]++
			cur = next
		}
		cross := float64(counts[[2]int{0, n}]+counts[[2]int{n, 0}]) /
			math.Max(float64(from[0]+from[n]), 1)
		minInternal := math.Inf(1)
		for e, c := range counts {
			if e[0]/n != e[1]/n {
				continue
			}
			if f := float64(c) / float64(from[e[0]]); f < minInternal {
				minInternal = f
			}
		}
		if cross == 0 {
			ratio = math.Inf(1)
		} else {
			ratio = minInternal / cross
		}
	}
	if !math.IsInf(ratio, 1) {
		b.ReportMetric(ratio, "min-internal/cross-freq")
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------

func ablationRun(b *testing.B, seed int64, mutate func(*core.Config)) float64 {
	b.Helper()
	app := apps.MustLoad(benchApps[1])
	cfg := core.DefaultConfig(core.DurationConstrained)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := harness.Run(harness.RunConfig{
		App:        app,
		Tool:       "monkey",
		Setting:    harness.TaOPTDuration,
		Duration:   benchMinutes * Minute,
		Seed:       seed,
		CoreConfig: &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.Union.Count())
}

// BenchmarkAblationDropOrphans measures the cost of leaving a de-allocated
// owner's subspace permanently blocked (dead zones) instead of re-dedicating
// it.
func BenchmarkAblationDropOrphans(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, int64(i+1), nil)
		drop := ablationRun(b, int64(i+1), func(c *core.Config) { c.DropOrphans = true })
		delta = 100 * (drop - base) / base
	}
	b.ReportMetric(delta, "%-coverage-change")
}

// BenchmarkAblationPaperStagnation measures the paper's 1-minute stagnation
// window against the calibrated default (see DESIGN.md's calibration notes).
func BenchmarkAblationPaperStagnation(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, int64(i+1), nil)
		paper := ablationRun(b, int64(i+1), func(c *core.Config) { c.Stagnation = core.PaperStagnation })
		delta = 100 * (paper - base) / base
	}
	b.ReportMetric(delta, "%-coverage-change")
}

// BenchmarkAblationNoWarmup measures accepting candidates without the
// warm-up guard (early impure windows).
func BenchmarkAblationNoWarmup(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, int64(i+1), nil)
		no := ablationRun(b, int64(i+1), func(c *core.Config) { c.WarmUp = 1 })
		delta = 100 * (no - base) / base
	}
	b.ReportMetric(delta, "%-coverage-change")
}

// BenchmarkFleetExperimentGrid measures a small campaign grid through the
// fleet worker pool — the machinery behind cmd/experiments' -workers flag.
// Every width computes identical cells (the seed of a cell derives from its
// key alone); the wall-clock ratio between the sub-benchmarks shows what
// parallel prefetching buys on this machine. Each cell is one single-threaded
// simulation, so the speedup ceiling is min(workers, cells, CPUs).
func BenchmarkFleetExperimentGrid(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := harness.NewCampaign(harness.CampaignConfig{
					Apps:     benchApps,
					Tools:    []string{"monkey", "ape"},
					Duration: benchMinutes * Minute,
					Seed:     int64(i + 1),
					Workers:  workers,
				})
				if err := c.Prefetch(nil, harness.BaselineParallel, harness.TaOPTDuration); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks on the hot algorithms -------------------------------

// BenchmarkFindSpace measures Algorithm 1's incremental sweep on a
// realistic-size window (450 visits, ~40 distinct screens).
func BenchmarkFindSpace(b *testing.B) {
	visits := make([]core.ScreenVisit, 450)
	for i := range visits {
		tok := i % 20
		if i > 225 {
			tok = 20 + i%20
		}
		visits[i] = core.ScreenVisit{Sig: ui.Signature(tok + 1), At: sim.Duration(i) * Second}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.FindSpace(visits, 60*Second, core.MatchExact{}); !ok {
			b.Fatal("no result")
		}
	}
}

// BenchmarkTreeSimilarity measures the abstract-hierarchy comparator used by
// CountIn as the analyzer runs it: over shapes computed once per signature.
func BenchmarkTreeSimilarity(b *testing.B) {
	app := apps.MustLoad(benchApps[0])
	s1 := ui.ShapeOf(app.Render(0, 0))
	s2 := ui.ShapeOf(app.Render(1, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ui.ShapeSimilarity(s1, s2)
	}
}

// BenchmarkScreenAbstraction measures signature computation.
func BenchmarkScreenAbstraction(b *testing.B) {
	app := apps.MustLoad(benchApps[0])
	s := app.Render(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Abstract()
	}
}

// BenchmarkOfflinePartition measures the preliminary study's conservative
// min-conductance partitioner on a trace-sized graph.
func BenchmarkOfflinePartition(b *testing.B) {
	builder := graph.NewBuilder()
	rng := sim.NewRNG(1)
	// 8 regions of 20 screens with rare cross edges.
	for r := 0; r < 8; r++ {
		for i := 0; i < 2000; i++ {
			a := r*20 + rng.Intn(20)
			c := r*20 + rng.Intn(20)
			builder.Add(ui.Signature(a+1), ui.Signature(c+1))
		}
		builder.Add(ui.Signature(r*20+1), ui.Signature(((r+1)%8)*20+1))
	}
	g := builder.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.OfflinePartition(g, graph.DefaultPartitionOptions())
	}
}

// BenchmarkObserveLongTrace measures the analyzer's per-event cost on a long
// single-instance trace with the window spanning the whole stream — the
// regression guard for the incremental SpaceTracker rewrite. One op is one
// Observe call, amortising the periodic analyses; "legacy" is the
// FindSpace-rescan reference path, "tracked" the incremental one. The repo
// benchmark's traced run reports the tracked path over the same scenario as
// core.observe_ns (perfbench/probe.go).
func BenchmarkObserveLongTrace(b *testing.B) {
	const visits = 10000
	events, book, err := harness.ObserveStream("Marvel Comics", visits)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"legacy", true}, {"tracked", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i += visits {
				a := harness.NewObserveAnalyzer(book, visits, mode.legacy)
				for _, ev := range events {
					a.Observe(ev)
				}
			}
			if b.N < visits {
				// b.N ops were requested but a full stream always runs; scale
				// the reported per-op figure accordingly.
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+visits-1)/visits*visits), "ns/event")
			}
		})
	}
}
