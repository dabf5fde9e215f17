package harness

import (
	"testing"

	"taopt/internal/sim"
)

// TestCampaignSeedPermutationInvariance is the metamorphic check on the
// multi-seed aggregation: executing the same seed set in a different order
// (fresh campaigns each time) must yield identical per-seed summaries and
// identical aggregate stats — no state may bleed between runs.
func TestCampaignSeedPermutationInvariance(t *testing.T) {
	seedSets := [][]int64{{3, 5, 9, 11}, {11, 9, 5, 3}, {9, 3, 11, 5}}
	type agg struct {
		union, crashes, distinct, subspaces int
		events                              uint64
		wall                                sim.Duration
	}
	perSeed := make([]map[int64]*CellSummary, len(seedSets))
	var aggs []agg
	for i, seedSet := range seedSets {
		perSeed[i] = make(map[int64]*CellSummary)
		var a agg
		for _, seed := range seedSet {
			cfg := tinyConfig()
			cfg.Seed = seed
			c := NewCampaign(cfg)
			s := mustCellT(t, c, "Filters For Selfie", "monkey", TaOPTDuration)
			perSeed[i][seed] = s
			a.union += s.Union
			a.crashes += s.UniqueCrashes
			a.distinct += s.DistinctUIs
			a.subspaces += s.Subspaces
			a.events += s.Events
			a.wall += s.WallUsed
		}
		aggs = append(aggs, a)
	}
	for i := 1; i < len(seedSets); i++ {
		if aggs[i] != aggs[0] {
			t.Fatalf("aggregate stats depend on seed order:\n%+v\nvs\n%+v", aggs[i], aggs[0])
		}
		for seed, want := range perSeed[0] {
			got := perSeed[i][seed]
			if got.Union != want.Union || got.Events != want.Events ||
				got.Subspaces != want.Subspaces || got.WallUsed != want.WallUsed {
				t.Fatalf("seed %d summary depends on execution order:\n%+v\nvs\n%+v", seed, got, want)
			}
		}
	}
}

// TestFleetWorkerInvarianceBothAnalyzerPaths extends the worker-count
// invariance (see TestFleetStatsCellsComputedWorkerInvariance) to full TaOPT
// campaigns: a serial pool and a four-wide one must compute the same number
// of cells with identical content. (The analyzer has one production path;
// its rescan reference is held equal to it inside internal/core.)
func TestFleetWorkerInvarianceBothAnalyzerPaths(t *testing.T) {
	settings := []Setting{TaOPTDuration}
	apps := []string{"Filters For Selfie", "Marvel Comics"}
	var ref *Campaign
	for _, workers := range []int{1, 4} {
		cfg := tinyConfig()
		cfg.Apps = apps
		cfg.Workers = workers
		c := NewCampaign(cfg)
		if err := c.Prefetch(nil, settings...); err != nil {
			t.Fatal(err)
		}
		if st := c.FleetStats(); st.CellsComputed != len(apps) {
			t.Fatalf("workers=%d: CellsComputed = %d, want %d",
				workers, st.CellsComputed, len(apps))
		}
		if ref == nil {
			ref = c
			continue
		}
		for _, appName := range c.Apps() {
			a := mustCellT(t, ref, appName, "monkey", TaOPTDuration)
			b := mustCellT(t, c, appName, "monkey", TaOPTDuration)
			if a.Union != b.Union || a.Subspaces != b.Subspaces ||
				a.Events != b.Events || a.WallUsed != b.WallUsed ||
				a.UIOccAverage != b.UIOccAverage {
				t.Fatalf("workers=%d: cell %s diverges from reference:\n%+v\nvs\n%+v",
					workers, a.Key, b, a)
			}
		}
	}
}
