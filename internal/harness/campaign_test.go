package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/sim"
)

func tinyConfig() CampaignConfig {
	return CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Tools:    []string{"monkey"},
		Duration: 6 * sim.Duration(60e9),
		Seed:     2,
	}
}

func mustCellT(t *testing.T, c *Campaign, app, tool string, s Setting) *CellSummary {
	t.Helper()
	cell, err := c.Cell(app, tool, s)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestCampaignCellCaching(t *testing.T) {
	c := NewCampaign(tinyConfig())
	a, err := c.Cell("Filters For Selfie", "monkey", BaselineParallel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Cell("Filters For Selfie", "monkey", BaselineParallel)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Cell call must return the cached summary")
	}
	if a.Union == 0 || len(a.Timeline) == 0 {
		t.Fatal("summary not populated")
	}
}

func TestCampaignBaselineCellsCarryTable1Data(t *testing.T) {
	c := NewCampaign(tinyConfig())
	base := mustCellT(t, c, "Filters For Selfie", "monkey", BaselineParallel)
	if base.OfflineSubspaces == 0 {
		t.Fatal("baseline cell missing the offline subspace partition")
	}
	total := 0
	for _, v := range base.OverlapHist {
		total += v
	}
	if total != base.OfflineSubspaces {
		t.Fatalf("histogram sums to %d, want %d subspaces", total, base.OfflineSubspaces)
	}
	opt := mustCellT(t, c, "Filters For Selfie", "monkey", TaOPTDuration)
	if opt.OverlapHist != nil {
		t.Fatal("non-baseline cells must not compute Table 1 data")
	}
}

func TestCampaignUnknownApp(t *testing.T) {
	c := NewCampaign(tinyConfig())
	if _, err := c.Cell("NopeApp", "monkey", BaselineParallel); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestCampaignDeterministicAcrossInstances(t *testing.T) {
	r1 := mustCellT(t, NewCampaign(tinyConfig()), "Filters For Selfie", "monkey", TaOPTDuration)
	r2 := mustCellT(t, NewCampaign(tinyConfig()), "Filters For Selfie", "monkey", TaOPTDuration)
	if r1.Union != r2.Union || r1.UniqueCrashes != r2.UniqueCrashes || r1.DistinctUIs != r2.DistinctUIs {
		t.Fatalf("campaign cells not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestCampaignSeedChangesResults(t *testing.T) {
	cfg1 := tinyConfig()
	cfg2 := tinyConfig()
	cfg2.Seed = 99
	a := mustCellT(t, NewCampaign(cfg1), "Filters For Selfie", "monkey", BaselineParallel)
	b := mustCellT(t, NewCampaign(cfg2), "Filters For Selfie", "monkey", BaselineParallel)
	if a.Union == b.Union && a.DistinctUIs == b.DistinctUIs && a.UIOccAverage == b.UIOccAverage {
		t.Fatal("different campaign seeds produced identical cells")
	}
}

func TestFleetCampaignParallelMatchesSerial(t *testing.T) {
	build := func(workers int) (*Campaign, *bytes.Buffer) {
		cfg := tinyConfig()
		cfg.Apps = []string{"Filters For Selfie", "Marvel Comics"}
		cfg.Workers = workers
		var progress bytes.Buffer
		cfg.Progress = &progress
		return NewCampaign(cfg), &progress
	}
	settings := []Setting{BaselineParallel, TaOPTDuration}

	serial, serialLog := build(1)
	if err := serial.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}
	par, parLog := build(4)
	if err := par.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}

	if serialLog.String() != parLog.String() {
		t.Fatalf("progress streams differ:\nserial:\n%s\nparallel:\n%s", serialLog, parLog)
	}
	for _, appName := range serial.Apps() {
		for _, setting := range settings {
			a := mustCellT(t, serial, appName, "monkey", setting)
			b := mustCellT(t, par, appName, "monkey", setting)
			if a.Union != b.Union || a.UniqueCrashes != b.UniqueCrashes ||
				a.DistinctUIs != b.DistinctUIs || a.UIOccAverage != b.UIOccAverage ||
				a.WallUsed != b.WallUsed || a.MachineUsed != b.MachineUsed ||
				a.Subspaces != b.Subspaces || len(a.Timeline) != len(b.Timeline) {
				t.Fatalf("cell %s differs between serial and parallel campaigns:\n%+v\nvs\n%+v",
					a.Key, a, b)
			}
		}
	}
}

// TestFleetSharedAppRace runs every cell of one app on two workers that
// share the app Prefetch generated once. Under -race it checks that a run
// only reads its app; either way each summary must equal the one a serial
// campaign computes from an app generated for that cell alone.
func TestFleetSharedAppRace(t *testing.T) {
	settings := []Setting{BaselineParallel, TaOPTDuration}
	build := func(workers int) *Campaign {
		cfg := tinyConfig()
		cfg.Tools = []string{"monkey", "ape", "wctester"}
		cfg.Workers = workers
		return NewCampaign(cfg)
	}
	par := build(2)
	if err := par.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}
	serial := build(1)
	for _, tool := range serial.Tools() {
		for _, setting := range settings {
			want := mustCellT(t, serial, "Filters For Selfie", tool, setting)
			got := mustCellT(t, par, "Filters For Selfie", tool, setting)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %s: shared-app summary differs from the serial one:\n%+v\nvs\n%+v", want.Key, got, want)
			}
		}
	}
	if st := par.FleetStats(); st.CellsComputed != 6 || st.CacheHits != 6 {
		t.Fatalf("parallel campaign: CellsComputed = %d, CacheHits = %d, want 6 and 6", st.CellsComputed, st.CacheHits)
	}
}

// TestFleetCrossCampaignSharedApp runs single-cell campaigns of one app on
// two goroutines, the way the benchmark's grid decomposes a pass, so their
// runs overlap on the app apps.Share hands out. Each summary must equal the
// serial campaign's, and the shared app must still equal a freshly generated
// one afterwards: runs only read the app, so sharing it across campaigns
// cannot change a result.
func TestFleetCrossCampaignSharedApp(t *testing.T) {
	const name = "Filters For Selfie"
	settings := []Setting{BaselineParallel, TaOPTDuration}
	serial := NewCampaign(tinyConfig())
	var keys []CellKey
	for _, tool := range []string{"monkey", "ape", "wctester"} {
		for _, setting := range settings {
			keys = append(keys, CellKey{App: name, Tool: tool, Setting: setting})
		}
	}

	held, release := apps.Share(mustLookup(t, name).Spec)
	defer release()
	got := make([]*CellSummary, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(keys); i += 2 {
				cfg := tinyConfig()
				cfg.Tools = []string{keys[i].Tool}
				c := NewCampaign(cfg)
				if err := c.Prefetch(nil, keys[i].Setting); err != nil {
					t.Error(err)
					return
				}
				s, err := c.Cell(name, keys[i].Tool, keys[i].Setting)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = s
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, key := range keys {
		want := mustCellT(t, serial, name, key.Tool, key.Setting)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("cell %s: cross-campaign summary differs from the serial one:\n%+v\nvs\n%+v", key, got[i], want)
		}
	}
	if !reflect.DeepEqual(held, mustLoad(t, name)) {
		t.Fatal("the shared app changed while campaigns ran on it")
	}
}

// TestCampaignReleasesAppShares checks that a campaign gives back its app
// share whether its cells succeed or fail: once the test drops its own share
// too, a new Share must generate the app afresh rather than hand back the
// one a leaked share kept registered.
func TestCampaignReleasesAppShares(t *testing.T) {
	const name = "Filters For Selfie"
	cfg := tinyConfig()
	cfg.Tools = []string{"monkey", "no-such-tool"}
	cfg.Workers = 2
	for _, tc := range []struct {
		what    string
		run     func(c *Campaign) error
		wantErr bool
	}{
		{"failing Prefetch", func(c *Campaign) error { return c.Prefetch(nil, BaselineParallel) }, true},
		{"failing Cell", func(c *Campaign) error { _, err := c.Cell(name, "no-such-tool", BaselineParallel); return err }, true},
		{"Cell", func(c *Campaign) error { _, err := c.Cell(name, "monkey", BaselineParallel); return err }, false},
	} {
		held, release := apps.Share(mustLookup(t, name).Spec)
		if err := tc.run(NewCampaign(cfg)); (err != nil) != tc.wantErr {
			t.Fatalf("%s: error %v, want error: %v", tc.what, err, tc.wantErr)
		}
		release()
		again, release := apps.Share(mustLookup(t, name).Spec)
		release()
		if again == held {
			t.Fatalf("%s kept its share of the app", tc.what)
		}
	}
}

// TestFleetStatsCellsComputedWorkerInvariance pins the accounting half of
// the fleet determinism guarantee: how many cells a Prefetch simulates is a
// property of the grid, never of the pool width — only JobsPerWorker (racy
// by design) may differ between worker counts.
func TestFleetStatsCellsComputedWorkerInvariance(t *testing.T) {
	settings := []Setting{BaselineParallel, TaOPTDuration}
	wantCells := 2 * len(settings) // two apps × two settings

	var baseline FleetStats
	for i, workers := range []int{1, 2, 4} {
		cfg := tinyConfig()
		cfg.Apps = []string{"Filters For Selfie", "Marvel Comics"}
		cfg.Workers = workers
		c := NewCampaign(cfg)
		if err := c.Prefetch(nil, settings...); err != nil {
			t.Fatal(err)
		}
		st := c.FleetStats()
		if st.CellsComputed != wantCells {
			t.Fatalf("workers=%d: CellsComputed = %d, want %d", workers, st.CellsComputed, wantCells)
		}
		if st.CacheHits != 0 {
			t.Fatalf("workers=%d: fresh prefetch recorded %d cache hits", workers, st.CacheHits)
		}
		// Re-reading a prefetched cell must hit the cache, not recompute.
		mustCellT(t, c, "Marvel Comics", "monkey", TaOPTDuration)
		st = c.FleetStats()
		if st.CellsComputed != wantCells || st.CacheHits != 1 {
			t.Fatalf("workers=%d after cached read: CellsComputed = %d, CacheHits = %d, want %d and 1",
				workers, st.CellsComputed, st.CacheHits, wantCells)
		}
		if i == 0 {
			baseline = st
			continue
		}
		if st.CellsComputed != baseline.CellsComputed || st.CacheHits != baseline.CacheHits {
			t.Fatalf("workers=%d stats {cells=%d hits=%d} diverge from serial {cells=%d hits=%d}",
				workers, st.CellsComputed, st.CacheHits, baseline.CellsComputed, baseline.CacheHits)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *RunResult {
		res, err := Run(RunConfig{
			App:      mustLoad(t, "Marvel Comics"),
			Tool:     "wctester",
			Setting:  TaOPTDuration,
			Duration: 8 * sim.Duration(60e9),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Union.Count() != b.Union.Count() {
		t.Fatalf("coverage differs: %d vs %d", a.Union.Count(), b.Union.Count())
	}
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i := range a.Instances {
		if a.Instances[i].Trace.Len() != b.Instances[i].Trace.Len() {
			t.Fatalf("instance %d trace lengths differ", i)
		}
	}
	if len(a.Subspaces) != len(b.Subspaces) {
		t.Fatal("subspace counts differ")
	}
}

func TestMachineTimeMatchesInstanceSum(t *testing.T) {
	res, err := Run(RunConfig{
		App:      mustLoad(t, "Filters For Selfie"),
		Tool:     "monkey",
		Setting:  BaselineParallel,
		Duration: 6 * sim.Duration(60e9),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.Duration
	for _, inst := range res.Instances {
		sum += inst.Released - inst.Allocated
	}
	if sum != res.MachineUsed {
		t.Fatalf("machine time %v != per-instance sum %v", res.MachineUsed, sum)
	}
}

func mustLoad(t *testing.T, name string) *app.App {
	t.Helper()
	a, err := apps.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
