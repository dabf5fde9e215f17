// Command taopt runs one parallel-testing campaign on a synthetic evaluation
// app with a chosen tool and parallelization setting, and prints the run's
// headline measurements.
//
// -bintrace records the run: one binary trace (.taoptb) holding every event,
// sample, decision and end-of-run summary. The JSON export, the Chrome trace
// and the decision log are views of that record, rendered offline with
// tracetool render. -replayable adds the coordination protocol records to
// that trace, so tracetool replay can re-drive the run from it.
//
// Usage:
//
//	taopt -app Zedge -tool ape -setting taopt-duration -duration 60
//	taopt -app demo -tool monkey -setting baseline
//	taopt -app Zedge -tool ape -setting taopt-duration -faults 0.2
//	taopt -scenario my-app.json -tool ape -setting taopt-duration
//	taopt -app Zedge -faultplan outage.json -tool ape -setting taopt-duration
//	taopt -app Zedge -tool ape -setting taopt-duration -telemetry -bintrace run.taoptb
//	tracetool render -view json run.taoptb > run.json
//	taopt -app Zedge -tool ape -setting taopt-duration -faults 0.2 -bintrace run.taoptb -replayable
//	tracetool replay -out replayed.json run.taoptb
//	taopt -list
package main

import (
	"flag"

	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/cli"
	"taopt/internal/core"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/report"
	"taopt/internal/scenario"
	"taopt/internal/sim"
	"taopt/internal/tools"
	"taopt/internal/ui"
)

func main() {
	var (
		appName    = flag.String("app", "demo", `evaluation app name from -list, or "demo" for the Figure 2 shopping app`)
		scenFile   = flag.String("scenario", "", "run the app defined by this scenario file (kind app) instead of -app")
		planFile   = flag.String("faultplan", "", "inject the fault plan defined by this scenario file (kind fault-plan)")
		tool       = flag.String("tool", "monkey", "testing tool: "+strings.Join(tools.Names(), ", "))
		setting    = flag.String("setting", "baseline", strings.Join(scenario.SettingNames(), " | "))
		instances  = flag.Int("instances", harness.DefaultInstances, "concurrent testing instances (d_max)")
		duration   = flag.Int("duration", 60, "wall-clock budget l_p in minutes")
		budget     = flag.Int("budget", 0, "machine-time budget in minutes (default instances × duration)")
		seed       = flag.Int64("seed", 1, "campaign seed")
		stagMin    = flag.Float64("stagnation", 0, "override stagnation window in minutes (0 = paper default)")
		faultRate  = flag.Float64("faults", 0, "inject device-farm failures at this instance-failure rate (e.g. 0.2)")
		replayable = flag.Bool("replayable", false, "add the coordination protocol to the -bintrace record (replay it with tracetool replay)")
		bintrace   = flag.String("bintrace", "", "record the run as a binary trace to this file (render JSON, Chrome or decision views with tracetool render)")
		telemetry  = flag.Bool("telemetry", false, "collect the coordinator's decision log and run metrics; prints a digest and adds them to the -bintrace record")
		list       = flag.Bool("list", false, "list evaluation apps and exit")
		verbose    = flag.Bool("v", false, "print per-instance details and identified subspaces")
	)
	cpuProf, memProf := cli.ProfileFlags()
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatalf("%v", err)
		}
	}()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "APP\tVERSION\tCATEGORY\t#INST\tLOGIN\tMETHODS")
		for _, e := range apps.Entries() {
			a := apps.MustLoad(e.Spec.Name)
			login := ""
			if e.Spec.LoginRequired {
				login = "*"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\n",
				e.Spec.Name, e.Spec.Version, e.Spec.Category, e.Spec.Downloads, login, a.MethodCount())
		}
		w.Flush()
		return
	}

	// A scenario file and a catalog name both resolve to a scenario app;
	// only the hand-built demo has no document hash.
	var (
		aut      *app.App
		sa       *scenario.App
		scenHash string
	)
	switch {
	case *scenFile != "":
		raw, err := os.ReadFile(*scenFile)
		if err != nil {
			fatalf("%v", err)
		}
		if sa, err = scenario.CompileApp(raw); err != nil {
			fatalf("%s: %v", *scenFile, err)
		}
	case *appName == "demo":
		aut = app.MotivatingExample()
	default:
		e, err := apps.Lookup(*appName)
		if err != nil {
			fatalf("%v (use -list to see available apps)", err)
		}
		sa = &e
	}
	if sa != nil {
		aut = sa.Generate()
		scenHash = sa.Hash
	}

	st, err := harness.ParseSetting(*setting)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := harness.RunConfig{
		App:           aut,
		Tool:          *tool,
		Setting:       st,
		Instances:     *instances,
		Duration:      sim.Duration(*duration) * sim.Duration(60e9),
		MachineBudget: sim.Duration(*budget) * sim.Duration(60e9),
		Seed:          *seed,
		ScenarioHash:  scenHash,
		Telemetry:     *telemetry,
	}
	if *planFile != "" && *faultRate > 0 {
		fatalf("-faultplan and -faults are exclusive (the plan file already fixes the fault mix)")
	}
	if *planFile != "" {
		raw, err := os.ReadFile(*planFile)
		if err != nil {
			fatalf("%v", err)
		}
		fp, err := scenario.CompileFaultPlan(raw)
		if err != nil {
			fatalf("%s: %v", *planFile, err)
		}
		fc := fp.Config
		cfg.Faults = &fc
	}
	if *faultRate > 0 {
		fc := faults.DefaultConfig(*faultRate)
		cfg.Faults = &fc
	}
	if *replayable {
		// The -stagnation override is not recorded, so such a trace could
		// never replay.
		if *bintrace == "" || *stagMin > 0 {
			fatalf("-replayable needs -bintrace and excludes -stagnation")
		}
		cfg.Replayable = true
	}
	var btrace *os.File
	if *bintrace != "" {
		var err error
		if btrace, err = os.Create(*bintrace); err != nil {
			fatalf("%v", err)
		}
		cfg.BinTrace = btrace
	}
	if *stagMin > 0 {
		cc, err := stagnationConfig(st, *stagMin)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.CoreConfig = cc
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if btrace != nil {
		if err := btrace.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("binary trace:   %s\n", *bintrace)
	}

	printSummary(os.Stdout, aut, *tool, st, res)
	if *telemetry {
		if err := report.Telemetry(os.Stdout, res); err != nil {
			fatalf("%v", err)
		}
	}

	if *verbose {
		printVerbose(os.Stdout, aut, res)
	}
}

var fatalf = cli.Fatalf("taopt")

// stagnationConfig is the coordinator config the -stagnation override
// passes to a run: the setting's mode defaults with a stagnation window of
// minutes. Only the TaOPT settings run a coordinator, so any other setting
// is a usage error rather than an override that silently does nothing.
func stagnationConfig(st harness.Setting, minutes float64) (*core.Config, error) {
	mode, ok := st.Mode()
	if !ok {
		return nil, fmt.Errorf("-stagnation applies only to the TaOPT settings (%s, %s); -setting %s runs no coordinator",
			harness.TaOPTDuration, harness.TaOPTResource, st)
	}
	cc := core.DefaultConfig(mode)
	cc.Stagnation = sim.Duration(minutes * 60e9)
	return &cc, nil
}

// printSummary writes the run's headline block. The scenario hash line
// repeats export v5's scenario_hash (and the service cache key's app
// component) so a terminal run correlates with exported results and taoptd
// cells; it is omitted for code-built apps, which have no document to name.
func printSummary(w io.Writer, aut *app.App, tool string, st harness.Setting, res *harness.RunResult) {
	fmt.Fprintf(w, "app:            %s (%d methods, %d screens)\n", aut.Name, aut.MethodCount(), len(aut.Screens))
	fmt.Fprintf(w, "tool:           %s\n", tool)
	fmt.Fprintf(w, "setting:        %s\n", st)
	if h := res.Config.ScenarioHash; h != "" {
		fmt.Fprintf(w, "scenario hash:  %s\n", h)
	}
	fmt.Fprintf(w, "wall used:      %v\n", res.WallUsed)
	fmt.Fprintf(w, "machine used:   %v\n", res.MachineUsed)
	fmt.Fprintf(w, "instances:      %d allocations\n", len(res.Instances))
	fmt.Fprintf(w, "coverage:       %d methods (%.1f%% of universe)\n",
		res.Union.Count(), 100*float64(res.Union.Count())/float64(aut.MethodCount()))
	fmt.Fprintf(w, "unique crashes: %d\n", res.UniqueCrashes)
	fmt.Fprintf(w, "distinct UIs:   %d (avg %.1f occurrences each)\n", len(res.UIOccurrences), res.UIOccurrenceAverage())
	if n := len(res.Timeline); n > 0 && res.Timeline[n-1].AJS > 0 {
		fmt.Fprintf(w, "final AJS:      %.3f\n", res.Timeline[n-1].AJS)
	}
	if len(res.Subspaces) > 0 {
		fmt.Fprintf(w, "subspaces:      %d identified\n", len(res.Subspaces))
	}
	if res.CoordinatorStats != nil {
		fmt.Fprintf(w, "coordinator:    %v\n", res.CoordinatorStats)
	}
	if res.Transport.Injected() > 0 {
		fmt.Fprintf(w, "transport:      %+v\n", res.Transport)
		fmt.Fprintf(w, "failed leases:  %d (orphaned subspaces pending: %d)\n",
			res.FailedInstances, res.OrphansPending)
	}
}

// printVerbose writes -v's per-instance table and the ground-truth block: the
// visit mass by functionality depth decile, which shows how deep a setting's
// exploration gets, and each identified subspace's span over the planted
// functionalities (-1 for a member no screen renders as). An evaluation aid
// only; TaOPT never sees the truth.
func printVerbose(w io.Writer, aut *app.App, res *harness.RunResult) {
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "INSTANCE\tALLOCATED\tRELEASED\tMETHODS\tCRASHES\tTRANSITIONS")
	for _, inst := range res.Instances {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%d\t%d\t%d\n",
			inst.ID, inst.Allocated, inst.Released, inst.Methods.Count(), inst.Crashes.Unique(), inst.Trace.Len())
	}
	tw.Flush()

	screenOf := make(map[ui.Signature]*app.ScreenState, len(aut.Screens))
	for _, sc := range aut.Screens {
		screenOf[aut.Signature(sc.ID)] = sc
	}
	depths := aut.Depths()
	var visits [10]int
	for sig, n := range res.UIOccurrences {
		if sc, ok := screenOf[sig]; ok && sc.Subspace != 0 {
			visits[min(int(depths[sc.ID]*10), 9)] += n
		}
	}
	fmt.Fprintf(w, "depth decile visits:  %v\n", visits)
	for _, sub := range res.Subspaces {
		span := make(map[int]int)
		for m := range sub.Members {
			gt := -1
			if sc, ok := screenOf[m]; ok {
				gt = sc.Subspace
			}
			span[gt]++
		}
		fmt.Fprintf(w, "subspace %d: entry=%v members=%d (initial %d) owner=%d found=%v span=%v\n",
			sub.ID, sub.Entry, len(sub.Members), sub.InitialMembers, sub.Owner, sub.FoundAt, span)
	}
}
