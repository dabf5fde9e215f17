package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/coverage"
	"taopt/internal/faults"
	"taopt/internal/graph"
	"taopt/internal/harness/fleet"
	"taopt/internal/metrics"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// CellKey identifies one run of the evaluation grid.
type CellKey struct {
	App     string
	Tool    string
	Setting Setting
}

func (k CellKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.App, k.Tool, k.Setting)
}

// CellSummary is the digest of one run that the experiment renderers work
// from. Heavy per-event data (traces, screen books) is reduced here so a full
// 18-app × 3-tool grid fits comfortably in memory.
type CellSummary struct {
	Key CellKey

	// Hash is the canonical scenario hash of the cell's app document (the
	// same value export v5 stamps as scenario_hash), surfaced so progress
	// output correlates with service cache keys and exported results.
	Hash string

	// Coverage.
	Union        int
	UnionSet     *coverage.Set
	InstanceSets []*coverage.Set
	Timeline     metrics.Timeline

	// Crashes.
	UniqueCrashes int

	// UI overlap (Table 6).
	DistinctUIs  int
	UIOccAverage float64

	// Budgets.
	WallUsed    sim.Duration
	MachineUsed sim.Duration
	// Events is the run's fired-scheduler-event count (the benchmark
	// harness's virtual-work measure).
	Events uint64

	// TaOPT-only.
	Subspaces int

	// Fault injection (zero on fault-free campaigns).
	FailedInstances int
	FaultsInjected  int
	OrphansPending  int

	// Preliminary-study fields, filled for BaselineParallel cells only:
	// the offline UI-subspace partition of the combined traces and, per
	// identified subspace, how many of the instances explored it (Table 1).
	OfflineSubspaces int
	OverlapHist      []int
}

// CampaignConfig parameterises a whole evaluation campaign.
type CampaignConfig struct {
	// Apps are catalog names; empty means all 18.
	Apps []string
	// Tools are testing-tool names; empty means all three.
	Tools []string
	// Instances is d_max (default 5).
	Instances int
	// Duration is l_p (default 1h). Scale it down for quick runs.
	Duration sim.Duration
	// SampleEvery is the timeline sampling period for every run (default
	// 10s, see DefaultSampleEvery).
	SampleEvery sim.Duration
	// Seed is the campaign seed; each cell derives its own.
	Seed int64
	// ScenarioApps maps app names to inline definitions from a campaign
	// scenario document. A name present here resolves to its scenario spec
	// instead of the catalog (Campaign.App); cells share the app by spec,
	// exactly like catalog apps.
	ScenarioApps map[string]scenario.App
	// Faults, when non-nil and enabled, injects device-farm failures into
	// every run of the campaign (chaos campaigns); each cell derives its
	// own deterministic fault plan from its cell seed.
	Faults *faults.Config
	// Workers bounds the goroutine pool Prefetch computes missing cells on.
	// 0 or 1 runs serially; results are identical either way — each cell's
	// seed derives from its key alone, and Prefetch merges in deterministic
	// key order.
	Workers int
	// BinTraceDir, when non-empty, streams every computed cell's run into
	// that directory as a binary trace file (internal/trace/bin), named
	// <app>_<tool>_<setting>_seed<seed>.taoptb with spaces dashed — the
	// corpus that cmd/tracetool's analytics stream over. Each cell writes
	// its own file, so fleet workers never contend.
	BinTraceDir string
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Apps) == 0 {
		c.Apps = apps.Names()
	}
	if len(c.Tools) == 0 {
		c.Tools = []string{"monkey", "ape", "wctester"}
	}
	if c.Instances == 0 {
		c.Instances = DefaultInstances
	}
	if c.Duration == 0 {
		c.Duration = DefaultDuration
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Campaign executes and caches evaluation runs. Each (app, tool, setting)
// cell runs at most once; all experiment renderers share the cache, so
// regenerating every table and figure costs one pass over the grid.
type Campaign struct {
	cfg   CampaignConfig
	cells map[CellKey]*CellSummary
	stats FleetStats
}

// FleetStats is the campaign's cache-and-pool accounting: how many cells
// were actually simulated, how many lookups the cache absorbed, and how the
// Prefetch batches spread across the worker pool (per-slot job counts from
// the most recent batch; assignment is racy by design, results never are).
type FleetStats struct {
	CellsComputed int
	CacheHits     int
	Workers       int
	JobsPerWorker []int
}

// NewCampaign returns an empty campaign with the given configuration.
func NewCampaign(cfg CampaignConfig) *Campaign {
	return &Campaign{cfg: cfg.withDefaults(), cells: make(map[CellKey]*CellSummary)}
}

// Config returns the campaign's effective configuration.
func (c *Campaign) Config() CampaignConfig { return c.cfg }

// Apps returns the campaign's app list (sorted).
func (c *Campaign) Apps() []string {
	out := append([]string(nil), c.cfg.Apps...)
	sort.Strings(out)
	return out
}

// Tools returns the campaign's tool list.
func (c *Campaign) Tools() []string { return append([]string(nil), c.cfg.Tools...) }

// cellSeed derives a deterministic seed per cell so adding cells never
// perturbs existing ones.
func (c *Campaign) cellSeed(key CellKey) int64 {
	h := int64(1469598103934665603)
	for _, s := range []string{key.App, key.Tool, key.Setting.String()} {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	return h ^ c.cfg.Seed
}

// Cell runs (or returns the cached summary of) one grid cell.
func (c *Campaign) Cell(appName, tool string, setting Setting) (*CellSummary, error) {
	key := CellKey{App: appName, Tool: tool, Setting: setting}
	if s, ok := c.cells[key]; ok {
		c.stats.CacheHits++
		return s, nil
	}
	if _, err := c.compute([]CellKey{key}); err != nil {
		return nil, err
	}
	return c.cells[key], nil
}

// FleetStats returns the campaign's cache and worker-pool accounting so far.
func (c *Campaign) FleetStats() FleetStats {
	st := c.stats
	st.JobsPerWorker = append([]int(nil), c.stats.JobsPerWorker...)
	return st
}

// computeCell executes one cell on aut, whose scenario hash is hash,
// without touching the cache or the progress writer, so fleet workers can
// run it concurrently: a cell is one self-contained simulation whose seed
// derives from its key alone, and it only reads the app.
func (c *Campaign) computeCell(key CellKey, aut *app.App, hash string) (*CellSummary, error) {
	cfg := RunConfig{
		App:          aut,
		Tool:         key.Tool,
		Setting:      key.Setting,
		Instances:    c.cfg.Instances,
		Duration:     c.cfg.Duration,
		SampleEvery:  c.cfg.SampleEvery,
		Seed:         c.cellSeed(key),
		ScenarioHash: hash,
		Faults:       c.cfg.Faults,
	}
	var binFile *os.File
	if c.cfg.BinTraceDir != "" {
		var err error
		binFile, err = os.Create(filepath.Join(c.cfg.BinTraceDir, CellTraceName(key, cfg.Seed)))
		if err != nil {
			return nil, fmt.Errorf("harness: creating binary trace: %w", err)
		}
		cfg.BinTrace = binFile
	}
	res, err := Run(cfg)
	if binFile != nil {
		if cerr := binFile.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("harness: closing binary trace: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	s := summarize(key, res, c.cfg.Instances)
	s.Hash = hash
	return s, nil
}

// CellTraceName is the deterministic binary-trace filename of one cell run:
// app, tool, setting and seed joined with underscores (spaces dashed), with
// the .taoptb extension. Campaign output directories stay diffable because
// the name is a pure function of the cell.
func CellTraceName(key CellKey, seed int64) string {
	clean := func(s string) string { return strings.ReplaceAll(s, " ", "-") }
	return fmt.Sprintf("%s_%s_%s_seed%d.taoptb", clean(key.App), clean(key.Tool), key.Setting, seed)
}

func (c *Campaign) logProgress(s *CellSummary) {
	if c.cfg.Progress != nil {
		fmt.Fprintf(c.cfg.Progress, "ran %-60s coverage=%-7d crashes=%-3d ui-overlap=%.1f hash=%.12s\n",
			s.Key.String(), s.Union, s.UniqueCrashes, s.UIOccAverage, s.Hash)
	}
}

// Prefetch computes the missing cells of the (apps × tools × settings)
// sub-grid on the campaign's worker pool and merges them into the cache. A
// nil tools slice means the campaign's full tool list. Merging and progress
// logging happen on the calling goroutine in deterministic key order
// (sorted apps, then tools and settings as given), so a parallel campaign's
// cache, summaries and progress stream are byte-identical to a serial one;
// the first cell error is returned after the whole batch settles.
func (c *Campaign) Prefetch(tools []string, settings ...Setting) error {
	if tools == nil {
		tools = c.cfg.Tools
	}
	var keys []CellKey
	for _, appName := range c.Apps() {
		for _, tool := range tools {
			for _, setting := range settings {
				key := CellKey{App: appName, Tool: tool, Setting: setting}
				if _, ok := c.cells[key]; !ok {
					keys = append(keys, key)
				}
			}
		}
	}
	pool, err := c.compute(keys)
	if pool.Workers > 0 {
		c.stats.Workers = pool.Workers
		c.stats.JobsPerWorker = pool.JobsPerWorker
	}
	return err
}

// compute runs a batch of cells on the worker pool and merges them into the
// cache in key order, returning the first cell error once the batch settles.
// Each app is shared read-only across overlapping runs (apps.Share): the
// batch takes one share per app, every cell of the batch runs on that app,
// and so does any other holder of the same spec at the same time. The shares
// are released once the batch settles, on error paths too.
func (c *Campaign) compute(keys []CellKey) (fleet.PoolStats, error) {
	workers := max(c.cfg.Workers, 1)
	var (
		mu       sync.Mutex
		releases []func()
	)
	defer func() {
		for _, release := range releases {
			release()
		}
	}()
	type held struct {
		app  *app.App
		hash string
	}
	loads := make(map[string]func() (held, error))
	for _, key := range keys {
		if loads[key.App] == nil {
			loads[key.App] = sync.OnceValues(func() (held, error) {
				sa, err := c.App(key.App)
				if err != nil {
					return held{}, err
				}
				aut, release := apps.Share(sa.Spec)
				mu.Lock()
				releases = append(releases, release)
				mu.Unlock()
				return held{aut, sa.Hash}, nil
			})
		}
	}
	results, pool := fleet.MapTracked(workers, len(keys), func(i int) (*CellSummary, error) {
		a, err := loads[keys[i].App]()
		if err != nil {
			return nil, err
		}
		return c.computeCell(keys[i], a.app, a.hash)
	})
	var firstErr error
	for _, r := range results {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			continue
		}
		c.stats.CellsComputed++
		c.cells[r.Value.Key] = r.Value
		c.logProgress(r.Value)
	}
	return pool, firstErr
}

// summarize reduces a RunResult to the digest the renderers need, computing
// the preliminary-study offline partition for baseline cells while the
// traces are still available.
func summarize(key CellKey, res *RunResult, instances int) *CellSummary {
	s := &CellSummary{
		Key:           key,
		Union:         res.Union.Count(),
		UnionSet:      res.Union,
		InstanceSets:  res.InstanceSets(),
		Timeline:      res.Timeline,
		UniqueCrashes: res.UniqueCrashes,
		DistinctUIs:   len(res.UIOccurrences),
		UIOccAverage:  res.UIOccurrenceAverage(),
		WallUsed:      res.WallUsed,
		MachineUsed:   res.MachineUsed,
		Events:        res.Events,
		Subspaces:     len(res.Subspaces),
	}
	s.FailedInstances = res.FailedInstances
	s.OrphansPending = res.OrphansPending
	s.FaultsInjected = res.Transport.Injected()
	if key.Setting == BaselineParallel {
		s.OfflineSubspaces, s.OverlapHist = subspaceOverlap(res, instances)
	}
	return s
}

// subspaceOverlap applies the offline UI-subspace partition to the combined
// baseline traces and counts, per subspace, how many of the first instances
// explored it (graph.Partition.ExploredBy).
func subspaceOverlap(res *RunResult, instances int) (int, []int) {
	logs := res.Traces()
	b := graph.NewBuilder()
	for _, l := range logs {
		b.AddTrace(l)
	}
	g := b.Graph()
	part := graph.OfflinePartition(g, graph.DefaultPartitionOptions())
	explored := part.ExploredBy(g, logs[:min(len(logs), instances)])
	return len(part.Groups), metrics.OverlapHistogram(explored, instances)
}
