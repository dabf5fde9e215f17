// Command experiments regenerates the paper's tables and figures from
// simulated campaigns.
//
// Usage:
//
//	experiments -exp all                 # everything, full 18-app grid (slow)
//	experiments -exp all -workers 0      # same output, one campaign cell per CPU
//	experiments -exp table4 -apps AccuWeather,Zedge
//	experiments -exp fig5 -minutes 20    # scaled-down budgets
//
// Experiment names: fig3, table1, table2, fig5, fig6, table4, table5,
// table6, single, preserve, chaos, all.
//
//	experiments -exp chaos -apps Zedge -minutes 20   # fault-injection study
//	experiments -exp chaos -scenario grid.json       # scenario-defined fault grid
//	experiments -exp grid -scenario campaign.json    # scenario-defined campaign
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"taopt/internal/apps"
	"taopt/internal/cli"
	"taopt/internal/core"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/report"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// ablateExperiment quantifies the design choices DESIGN.md calls out by
// re-running TaOPT's duration-constrained mode with each one disabled or
// reverted, on every app of the campaign.
func ablateExperiment(w io.Writer, c *harness.Campaign) error {
	cfg := c.Config()
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"default (calibrated)", nil},
		{"paper 1-minute stagnation", func(cc *core.Config) { cc.Stagnation = core.PaperStagnation }},
		{"orphans stay blocked", func(cc *core.Config) { cc.DropOrphans = true }},
		{"no warm-up", func(cc *core.Config) { cc.WarmUp = 1 }},
		{"no breadth guard", func(cc *core.Config) { cc.MaxSpaceFraction = 0.999 }},
		{"no score threshold", func(cc *core.Config) { cc.Analyzer.ScoreMax = 0.999 }},
	}
	fmt.Fprintf(w, "\nAblations (TaOPT duration-constrained, monkey, %d apps)\n", len(c.Apps()))
	fmt.Fprintf(w, "%-30s%12s%12s%12s\n", "variant", "coverage", "Δ vs def.", "subspaces")
	var defCov float64
	for _, v := range variants {
		var cov float64
		subs := 0
		for _, appName := range c.Apps() {
			aut, err := apps.Load(appName)
			if err != nil {
				return err
			}
			rc := harness.RunConfig{
				App:       aut,
				Tool:      "monkey",
				Setting:   harness.TaOPTDuration,
				Instances: cfg.Instances,
				Duration:  cfg.Duration,
				Seed:      cfg.Seed,
			}
			if v.mutate != nil {
				cc := core.DefaultConfig(core.DurationConstrained)
				v.mutate(&cc)
				rc.CoreConfig = &cc
			}
			res, err := harness.Run(rc)
			if err != nil {
				return err
			}
			cov += float64(res.Union.Count())
			subs += len(res.Subspaces)
		}
		if v.mutate == nil {
			defCov = cov
		}
		delta := "-"
		if v.mutate != nil && defCov > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cov-defCov)/defCov)
		}
		fmt.Fprintf(w, "%-30s%12.0f%12s%12d\n", v.name, cov/float64(len(c.Apps())), delta, subs)
	}
	return nil
}

var experiments = map[string]func(io.Writer, *harness.Campaign) error{
	"ablate":   ablateExperiment,
	"fig3":     report.Figure3,
	"table1":   report.Table1,
	"table2":   report.Table2,
	"fig5":     report.Figure5,
	"fig6":     report.Figure6,
	"table4":   report.Table4,
	"table5":   report.Table5,
	"table6":   report.Table6,
	"single":   report.SingleLong,
	"preserve": report.Preservation,
	"all":      report.All,
}

// chaosGrid resolves the chaos experiment's variant grid: the -scenario
// campaign's faultGrid if it has one, else report.DefaultChaosGrid (which
// testdata/scenarios/chaos-grid.json pins, a test holds the two equal).
func chaosGrid(sc *scenario.Campaign) []report.ChaosVariant {
	if sc == nil || len(sc.FaultGrid) == 0 {
		return report.DefaultChaosGrid()
	}
	grid := make([]report.ChaosVariant, 0, len(sc.FaultGrid))
	for _, fp := range sc.FaultGrid {
		grid = append(grid, report.ChaosVariant{Label: fp.Name, Config: fp.Config})
	}
	return grid
}

func main() {
	fatalf := cli.Fatalf("experiments")
	var (
		exp       = flag.String("exp", "all", "experiment to regenerate: fig3|table1|table2|fig5|fig6|table4|table5|table6|single|preserve|chaos|ablate|all|grid")
		seeds     = flag.Int("seeds", 1, "number of seeded campaigns for -exp grid (only grid accepts a value other than 1)")
		scenFile  = flag.String("scenario", "", "campaign scenario file supplying the grid (apps, tools, budgets, fault plans); explicit flags override its fields")
		appsFlag  = flag.String("apps", "", "comma-separated app subset (default: all 18)")
		toolsFlag = flag.String("tools", "", "comma-separated tool subset (default: monkey,ape,wctester)")
		minutes   = flag.Int("minutes", 60, "wall-clock budget l_p in minutes")
		instances = flag.Int("instances", harness.DefaultInstances, "concurrent instances d_max")
		seed      = flag.Int64("seed", 1, "campaign seed")
		faultRate = flag.Float64("faults", 0, "instance-failure rate for fault injection (chaos derives its own 0/5/20% grid)")
		workers   = flag.Int("workers", 1, "campaign cells computed in parallel (0 = GOMAXPROCS); results are identical to -workers=1")
		binDir    = flag.String("bintrace-dir", "", "stream every computed cell's run as a binary trace file into this directory (analyze with tracetool corpus)")
		quiet     = flag.Bool("q", false, "suppress per-run progress lines")
	)
	cpuProf, memProf := cli.ProfileFlags()
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	stopProfiles, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	fn, ok := experiments[*exp]
	if !ok && *exp != "grid" && *exp != "chaos" {
		fatalf("unknown experiment %q", *exp)
	}
	if *seeds != 1 && *exp != "grid" {
		fatalf("-seeds applies only to -exp grid (every other experiment runs one campaign)")
	}

	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	var scCampaign *scenario.Campaign
	if *scenFile != "" {
		raw, err := os.ReadFile(*scenFile)
		if err != nil {
			fatalf("%v", err)
		}
		if scCampaign, err = scenario.CompileCampaign(raw); err != nil {
			fatalf("%s: %v", *scenFile, err)
		}
		// To stderr with the progress lines: the document hash correlates this
		// sweep with exports and service cache keys without perturbing the
		// byte-stable stdout reports.
		fmt.Fprintf(os.Stderr, "scenario: %s hash=%s\n", *scenFile, scCampaign.Hash)
	}

	cfg := harness.CampaignConfig{
		Instances: *instances,
		Duration:  sim.Duration(*minutes) * sim.Duration(60e9),
		Seed:      *seed,
		Workers:   *workers,
	}
	if *binDir != "" {
		if err := os.MkdirAll(*binDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		cfg.BinTraceDir = *binDir
	}
	if *appsFlag != "" {
		cfg.Apps = splitList(*appsFlag)
	}
	if *toolsFlag != "" {
		cfg.Tools = splitList(*toolsFlag)
	}
	if *faultRate > 0 {
		fc := faults.DefaultConfig(*faultRate)
		cfg.Faults = &fc
	}
	settings := []harness.Setting{harness.TaOPTDuration, harness.TaOPTResource}
	if scCampaign != nil {
		// Scenario fields fill any axis the command line left alone; a flag
		// the user set explicitly always wins over the file.
		scCfg, err := harness.FromScenario(scCampaign)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.ScenarioApps = scCfg.ScenarioApps
		cfg.SampleEvery = scCfg.SampleEvery
		if !setFlags["apps"] && len(scCfg.Apps) > 0 {
			cfg.Apps = scCfg.Apps
		}
		if !setFlags["tools"] && len(scCfg.Tools) > 0 {
			cfg.Tools = scCfg.Tools
		}
		if !setFlags["instances"] && scCfg.Instances > 0 {
			cfg.Instances = scCfg.Instances
		}
		if !setFlags["minutes"] && scCfg.Duration > 0 {
			cfg.Duration = scCfg.Duration
		}
		if !setFlags["workers"] && scCfg.Workers > 0 {
			cfg.Workers = scCfg.Workers
		}
		if !setFlags["seed"] && scCfg.Seed != 0 {
			cfg.Seed = scCfg.Seed
		}
		if !setFlags["faults"] && scCfg.Faults != nil {
			cfg.Faults = scCfg.Faults
		}
		if len(scCampaign.Settings) > 0 {
			if settings, err = harness.ScenarioSettings(scCampaign); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	if *exp == "chaos" {
		grid := chaosGrid(scCampaign)
		fn = func(w io.Writer, c *harness.Campaign) error {
			return report.ChaosGrid(w, c, grid)
		}
	}

	if *exp == "grid" {
		// The multi-seed table averages coverage, crashes, UI overlap and
		// savings over the seeded campaigns: the calibration instrument behind
		// EXPERIMENTS.md.
		if err := report.MultiSeed(os.Stdout, harness.NewMultiSeed(cfg, *seeds), settings); err != nil {
			fatalf("%v", err)
		}
		return
	}

	c := harness.NewCampaign(cfg)
	if err := fn(os.Stdout, c); err != nil {
		fatalf("%v", err)
	}
	if *workers > 1 {
		// Pool accounting goes to stderr with the progress lines: stdout must
		// stay byte-identical to a serial run.
		st := c.FleetStats()
		fmt.Fprintf(os.Stderr, "fleet: %d cells computed, %d cache hits, %d workers, jobs per worker %v\n",
			st.CellsComputed, st.CacheHits, st.Workers, st.JobsPerWorker)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
