package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"taopt/internal/harness"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		if a, b := genGrid(seed), genGrid(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genGrid(%d) differs between calls", seed)
		}
		if a, b := genCorpusGrid(seed), genCorpusGrid(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genCorpusGrid(%d) differs between calls", seed)
		}
		if a, b := genWarmDocs(seed), genWarmDocs(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genWarmDocs(%d) differs between calls", seed)
		}
		q1, q2 := newOpSeq(seed, 8, mixedNewEvery), newOpSeq(seed, 8, mixedNewEvery)
		for i := 0; i < 500; i++ {
			a, b := q1.next(), q2.next()
			a.meet, b.meet = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: op %d differs: %+v vs %+v", seed, i, a, b)
			}
		}
	}
	if genGrid(1).Seed == genGrid(2).Seed {
		t.Errorf("seeds 1 and 2 give the same campaign seed")
	}
	if reflect.DeepEqual(genWarmDocs(1), genWarmDocs(2)) {
		t.Errorf("seeds 1 and 2 give the same warm documents")
	}
}

// TestOpSeqMix pins the balanced mix: one draw in mixedNewEvery is a new
// configuration, a third of them pairs, and every warm document is
// re-submitted equally often.
func TestOpSeqMix(t *testing.T) {
	const draws = 5000
	q := newOpSeq(3, 8, mixedNewEvery)
	news, pairs := 0, 0
	perDoc := make([]int, 8)
	shapes := make(map[runDoc]bool)
	for i := 0; i < draws; i++ {
		switch o := q.next(); {
		case o.Pair:
			pairs++
		case o.New != nil:
			news++
			shape := *o.New
			shape.Seed = 0
			shapes[shape] = true
		default:
			perDoc[o.Warm]++
		}
	}
	if news != draws/mixedNewEvery {
		t.Errorf("%d new configurations in %d draws, want %d", news, draws, draws/mixedNewEvery)
	}
	if pairs != news/pairEvery {
		t.Errorf("%d pairs for %d new configurations, want %d", pairs, news, news/pairEvery)
	}
	if len(shapes) != len(missApps)*len(allTools)*len(allSettings) {
		t.Errorf("new configurations use %d shapes, want every one", len(shapes))
	}
	lo, hi := draws, 0
	for _, n := range perDoc {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		t.Errorf("warm documents re-submitted %v times, want equal counts", perDoc)
	}
}

// TestSingleCellPrefetchMatchesGrid pins the grid workload's decomposition:
// a single-cell campaign computes the same cell as a whole-grid Prefetch on
// a wider pool.
func TestSingleCellPrefetchMatchesGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	spec := gridSpec{
		Apps:     []string{"Filters For Selfie", "Marvel Comics"},
		Tools:    []string{"monkey"},
		Settings: []harness.Setting{harness.BaselineParallel, harness.TaOPTDuration},
		Duration: 2 * minute,
		Seed:     7,
	}
	c := harness.NewCampaign(harness.CampaignConfig{
		Apps: spec.Apps, Tools: spec.Tools, Duration: spec.Duration, Seed: spec.Seed, Workers: 2,
	})
	if err := c.Prefetch(nil, spec.Settings...); err != nil {
		t.Fatal(err)
	}
	for _, key := range spec.cells() {
		whole, err := c.Cell(key.App, key.Tool, key.Setting)
		if err != nil {
			t.Fatal(err)
		}
		single, err := computeCell(spec, key)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := cellOutcome(whole), cellOutcome(single); a != b {
			t.Errorf("%s: whole-grid %s, single-cell %s", key, a, b)
		}
	}
}

// TestWorkloadsRunCleanly runs every workload briefly under a seed twice:
// no op may fail and the digest must repeat.
func TestWorkloadsRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				e := &env{seed: 2, workers: 2, dir: t.TempDir()}
				st, err := wl.setup(e)
				if err != nil {
					t.Fatal(err)
				}
				ph, err := st.run(1, nil)
				if cerr := st.close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if ph.failed != 0 || ph.ops == 0 {
					t.Errorf("%d of %d ops failed", ph.failed, ph.ops)
				}
				digests = append(digests, ph.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("sim_digest differs between runs of one seed: %v", digests)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
