// The examples below are runnable walk-throughs of the public API. Each is
// deterministic on virtual time, so go test checks its output; run one with
// go test -run Example_shopping -v.
package taopt_test

import (
	"fmt"
	"log"
	"sort"

	"taopt"
)

// Quickstart: run TaOPT's duration-constrained mode against the
// uncoordinated baseline on one evaluation app and print what changed.
func Example_quickstart() {
	app := taopt.LoadApp("AccuWeather")
	fmt.Printf("App under test: %s (%d methods, %d screens, %d crash sites)\n\n",
		app.Name, app.MethodCount(), len(app.Screens), len(app.CrashSites))

	// Five uncoordinated Monkey instances for one hour each — the paper's
	// baseline parallelization. Runs on virtual time, so this returns in
	// seconds.
	baseline, err := taopt.Run(taopt.RunConfig{
		App:     app,
		Tool:    "monkey",
		Setting: taopt.Baseline,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same tool and budgets, coordinated by TaOPT: the trace analyzer
	// identifies loosely coupled UI subspaces online and the coordinator
	// dedicates each one to a single instance.
	optimized, err := taopt.Run(taopt.RunConfig{
		App:     app,
		Tool:    "monkey",
		Setting: taopt.TaOPTDuration,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %12s %12s\n", "", "baseline", "TaOPT")
	row := func(label string, b, o interface{}) { fmt.Printf("%-28s %12v %12v\n", label, b, o) }
	row("methods covered", baseline.Union.Count(), optimized.Union.Count())
	row("unique crashes", baseline.UniqueCrashes, optimized.UniqueCrashes)
	row("distinct UI screens", len(baseline.UIOccurrences), len(optimized.UIOccurrences))
	fmt.Printf("%-28s %12.1f %12.1f\n", "avg occurrences per screen",
		baseline.UIOccurrenceAverage(), optimized.UIOccurrenceAverage())
	row("machine time", baseline.MachineUsed, optimized.MachineUsed)
	row("instance allocations", len(baseline.Instances), len(optimized.Instances))

	fmt.Printf("\nTaOPT identified %d loosely coupled UI subspaces:\n", len(optimized.Subspaces))
	for _, sub := range optimized.Subspaces {
		fmt.Printf("  subspace %d: %d screens, dedicated to instance %d (found at %v)\n",
			sub.ID, len(sub.Members), sub.Owner, sub.FoundAt)
	}

	// Output:
	// App under test: AccuWeather (51312 methods, 904 screens, 12 crash sites)
	//
	//                                  baseline        TaOPT
	// methods covered                     26022        27225
	// unique crashes                          2            2
	// distinct UI screens                   634          640
	// avg occurrences per screen           35.4         30.9
	// machine time                       5h0m0s       5h0m0s
	// instance allocations                    5           12
	//
	// TaOPT identified 11 loosely coupled UI subspaces:
	//   subspace 0: 37 screens, dedicated to instance 7 (found at 4m1.368314546s)
	//   subspace 1: 21 screens, dedicated to instance 11 (found at 4m17.701270701s)
	//   subspace 2: 10 screens, dedicated to instance 9 (found at 8m57.635164332s)
	//   subspace 3: 20 screens, dedicated to instance 8 (found at 10m47.547682961s)
	//   subspace 4: 17 screens, dedicated to instance 6 (found at 15m22.753137147s)
	//   subspace 5: 62 screens, dedicated to instance 0 (found at 25m37.365999242s)
	//   subspace 6: 14 screens, dedicated to instance 3 (found at 26m21.14473989s)
	//   subspace 7: 3 screens, dedicated to instance 10 (found at 27m8.586332954s)
	//   subspace 8: 40 screens, dedicated to instance 7 (found at 39m34.691144855s)
	//   subspace 9: 39 screens, dedicated to instance 3 (found at 41m35.736931038s)
	//   subspace 10: 6 screens, dedicated to instance 7 (found at 44m51.713908889s)
}

// Shopping walks through the paper's motivating example (Figure 2): an
// online-shopping app whose UI space splits into a Shopping functionality
// and an Account Settings functionality, loosely coupled through the
// MainTabs hub. It shows (1) the ground-truth structure, (2) why
// activity-granularity partitioning fails on it, and (3) TaOPT identifying
// and separating the two subspaces online.
func Example_shopping() {
	app := taopt.MotivatingExample()

	fmt.Println("Figure 2's online shopping app:")
	for _, s := range app.Screens {
		zone := map[int]string{0: "hub", 1: "shopping", 2: "account"}[s.Subspace]
		fmt.Printf("  %-16s activity=%-28s zone=%s\n", s.Title, trimPkg(s.Activity), zone)
	}
	fmt.Println()
	fmt.Println("Note the traps for activity-granularity partitioning: WishList runs in")
	fmt.Println("MainTabsActivity (the hub's activity) and AccountSetting reuses")
	fmt.Println("SettingActivity — functionalities and activities do not line up.")
	fmt.Println()

	run := func(setting taopt.Setting) *taopt.RunResult {
		cfg := taopt.RunConfig{
			App:      app,
			Tool:     "wctester",
			Setting:  setting,
			Duration: 30 * taopt.Minute,
			Seed:     7,
		}
		if setting == taopt.TaOPTDuration {
			// The coordinator's breadth guard rejects candidates claiming
			// more than half the known screens — correct for apps with many
			// functionalities, but this demo app has exactly two, so each
			// genuinely IS about half the space. Relax the guard for the
			// walk-through.
			cc := taopt.DefaultCoordinatorConfig(taopt.DurationConstrained)
			cc.MaxSpaceFraction = 0.75
			cfg.CoreConfig = &cc
		}
		res, err := taopt.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	baseline := run(taopt.Baseline)
	activity := run(taopt.ActivityPartition)
	optimized := run(taopt.TaOPTDuration)

	fmt.Printf("%-24s %10s %10s %10s\n", "WCTester, 5×30min", "baseline", "activity", "TaOPT")
	fmt.Printf("%-24s %10d %10d %10d\n", "methods covered",
		baseline.Union.Count(), activity.Union.Count(), optimized.Union.Count())
	fmt.Printf("%-24s %10.1f %10.1f %10.1f\n", "avg UI occurrences",
		baseline.UIOccurrenceAverage(), activity.UIOccurrenceAverage(), optimized.UIOccurrenceAverage())
	fmt.Printf("%-24s %10d %10d %10d\n", "unique crashes",
		baseline.UniqueCrashes, activity.UniqueCrashes, optimized.UniqueCrashes)

	fmt.Printf("\nTaOPT's identified subspaces (the paper's ★ is the Search tab entrypoint):\n")
	for _, sub := range optimized.Subspaces {
		fmt.Printf("  subspace %d: entry=%v, %d screens, owner=instance %d\n",
			sub.ID, sub.Entry, len(sub.Members), sub.Owner)
	}
	if len(optimized.Subspaces) == 0 {
		fmt.Println("  (none identified: with only 18 screens, every instance re-visits both")
		fmt.Println("  functionalities within a single analysis window, so no split is ever")
		fmt.Println("  loosely coupled *in time* — exactly the paper's point that coupling is a")
		fmt.Println("  property of the tool's transition probabilities, not of the static app")
		fmt.Println("  structure. See Example_quickstart for identification at realistic scale.)")
	}

	// Output:
	// Figure 2's online shopping app:
	//   MainTabs         activity=MainTabsActivity             zone=hub
	//   SearchTabs       activity=SearchTabsActivity           zone=shopping
	//   SelectList       activity=SelectListActivity           zone=shopping
	//   GoodsDetail      activity=GoodsDetailActivity          zone=shopping
	//   ShopBag          activity=ShopBagActivity              zone=shopping
	//   WishList         activity=MainTabsActivity             zone=shopping
	//   UserServiceList  activity=UserServiceListActivity      zone=account
	//   Setting          activity=SettingActivity              zone=account
	//   Profile          activity=ProfileActivity              zone=account
	//   AccountSetting   activity=SettingActivity              zone=account
	//   GoodsGallery     activity=GoodsDetailActivity          zone=shopping
	//   Reviews          activity=GoodsDetailActivity          zone=shopping
	//   SimilarItems     activity=SelectListActivity           zone=shopping
	//   Checkout         activity=CheckoutActivity             zone=shopping
	//   OrderStatus      activity=CheckoutActivity             zone=shopping
	//   Security         activity=SettingActivity              zone=account
	//   Notifications    activity=SettingActivity              zone=account
	//   Addresses        activity=ProfileActivity              zone=account
	//
	// Note the traps for activity-granularity partitioning: WishList runs in
	// MainTabsActivity (the hub's activity) and AccountSetting reuses
	// SettingActivity — functionalities and activities do not line up.
	//
	// WCTester, 5×30min          baseline   activity      TaOPT
	// methods covered                1308        640       1308
	// avg UI occurrences            621.4      904.9      621.0
	// unique crashes                    1          0          1
	//
	// TaOPT's identified subspaces (the paper's ★ is the Search tab entrypoint):
	//   (none identified: with only 18 screens, every instance re-visits both
	//   functionalities within a single analysis window, so no split is ever
	//   loosely coupled *in time* — exactly the paper's point that coupling is a
	//   property of the tool's transition probabilities, not of the static app
	//   structure. See Example_quickstart for identification at realistic scale.)
}

func trimPkg(activity string) string {
	for i := len(activity) - 1; i >= 0; i-- {
		if activity[i] == '.' {
			return activity[i+1:]
		}
	}
	return activity
}

// Crashhunt compares crash detection across parallelization settings on the
// crash-heaviest evaluation apps (the paper's RQ5, Table 5) and reports every
// distinct crash signature with where it was first seen — the analysis a
// tester runs to triage a parallel campaign's findings.
//
// Crash counts are small integers and noisy per seed; see EXPERIMENTS.md's
// "Fidelity gaps" for why this substrate does not reproduce the paper's
// 1.2–2.1× crash improvements (coverage and overlap results do transfer).
func Example_crashhunt() {
	apps := []string{"Google Translate", "AbsWorkout", "Merriam-Webster"}
	tools := []string{"monkey", "ape"}

	fmt.Println("Unique crashes by setting (1h × 5 instances per run):")
	fmt.Printf("%-20s %-10s %10s %10s %10s\n", "app", "tool", "baseline", "TaOPT(D)", "TaOPT(R)")

	totals := map[taopt.Setting]int{}
	firstSeen := map[string]string{} // crash signature -> where it was first found

	for _, appName := range apps {
		app := taopt.LoadApp(appName)
		for _, tool := range tools {
			counts := map[taopt.Setting]int{}
			for _, setting := range []taopt.Setting{taopt.Baseline, taopt.TaOPTDuration, taopt.TaOPTResource} {
				res, err := taopt.Run(taopt.RunConfig{
					App:     app,
					Tool:    tool,
					Setting: setting,
					Seed:    11,
				})
				if err != nil {
					log.Fatal(err)
				}
				counts[setting] = res.UniqueCrashes
				totals[setting] += res.UniqueCrashes
				for _, inst := range res.Instances {
					for _, rep := range inst.Crashes.Reports() {
						sig := string(rep.Signature)
						if _, ok := firstSeen[sig]; !ok {
							firstSeen[sig] = fmt.Sprintf("%s/%s/%s (instance %d at %v)",
								appName, tool, setting, rep.Instance, rep.At)
						}
					}
				}
			}
			fmt.Printf("%-20s %-10s %10d %10d %10d\n", appName, tool,
				counts[taopt.Baseline], counts[taopt.TaOPTDuration], counts[taopt.TaOPTResource])
		}
	}

	fmt.Printf("\ntotals: baseline=%d, taopt-duration=%d, taopt-resource=%d\n",
		totals[taopt.Baseline], totals[taopt.TaOPTDuration], totals[taopt.TaOPTResource])

	fmt.Printf("\n%d distinct crash signatures observed; first sightings:\n", len(firstSeen))
	sigs := make([]string, 0, len(firstSeen))
	for sig := range firstSeen {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fmt.Printf("  %s ← %s\n", sig, firstSeen[sig])
	}

	// Output:
	// Unique crashes by setting (1h × 5 instances per run):
	// app                  tool         baseline   TaOPT(D)   TaOPT(R)
	// Google Translate     monkey              6          4          5
	// Google Translate     ape                 8          9          5
	// AbsWorkout           monkey              7          6          5
	// AbsWorkout           ape                 6          8          5
	// Merriam-Webster      monkey              7          2          4
	// Merriam-Webster      ape                10          7          3
	//
	// totals: baseline=44, taopt-duration=36, taopt-resource=27
	//
	// 44 distinct crash signatures observed; first sightings:
	//   crash:06cf5cf28cfb2c0d ← AbsWorkout/monkey/baseline (instance 4 at 52m35.782116386s)
	//   crash:1cc9be6498905335 ← Merriam-Webster/monkey/baseline (instance 0 at 27m29.833784185s)
	//   crash:24363680de737fa8 ← AbsWorkout/monkey/taopt-duration (instance 7 at 35m29.718233152s)
	//   crash:252b370c508f7a02 ← Google Translate/ape/baseline (instance 2 at 25m50.009686634s)
	//   crash:2ad341264d51ca7c ← AbsWorkout/monkey/baseline (instance 3 at 22m36.765926737s)
	//   crash:322e897b18460e9d ← Merriam-Webster/monkey/taopt-duration (instance 6 at 46m59.963601364s)
	//   crash:34b7ed9125df933a ← Google Translate/monkey/baseline (instance 3 at 56m15.01038276s)
	//   crash:39bd19117f80aef2 ← Google Translate/ape/taopt-resource (instance 0 at 24m8.029392934s)
	//   crash:3ad7895f23365cac ← AbsWorkout/monkey/baseline (instance 3 at 33m17.277510637s)
	//   crash:42d14a16931d18cf ← Google Translate/monkey/baseline (instance 0 at 21m23.698650352s)
	//   crash:49a77577faad22a9 ← AbsWorkout/ape/taopt-duration (instance 16 at 59m43.582669009s)
	//   crash:5bf392cb0d98e699 ← AbsWorkout/ape/baseline (instance 0 at 41m27.832675801s)
	//   crash:65e0a4afdff31dad ← AbsWorkout/ape/baseline (instance 1 at 27m15.402641392s)
	//   crash:68848c1a60bab31c ← Google Translate/monkey/taopt-resource (instance 3 at 29m15.632862504s)
	//   crash:776bf0ee6aee3f3e ← Merriam-Webster/ape/baseline (instance 1 at 8m23.715065263s)
	//   crash:7cdbbcaa1012831a ← Merriam-Webster/ape/taopt-resource (instance 0 at 25m0.681456213s)
	//   crash:89b777f84956e052 ← AbsWorkout/ape/baseline (instance 2 at 6m52.728926223s)
	//   crash:8cb4372a6b06c7b5 ← Google Translate/monkey/baseline (instance 4 at 28.65526292s)
	//   crash:95c98d9250c7fbdd ← Google Translate/monkey/taopt-resource (instance 1 at 12m58.816519625s)
	//   crash:9bab9bbcf4d6eb62 ← Google Translate/monkey/baseline (instance 0 at 42m58.568775605s)
	//   crash:a3aad96a740be0ef ← Merriam-Webster/ape/baseline (instance 4 at 34m15.996514391s)
	//   crash:a951cea56ec18988 ← Google Translate/ape/taopt-duration (instance 4 at 34m10.790006406s)
	//   crash:aefa2dbd46168fea ← AbsWorkout/ape/taopt-duration (instance 9 at 45m35.718458761s)
	//   crash:b0d84db5dbc9ce92 ← Google Translate/monkey/taopt-resource (instance 1 at 1h3m0.70885427s)
	//   crash:b33f90b7ae760b41 ← Merriam-Webster/ape/taopt-duration (instance 2 at 5m40.004539258s)
	//   crash:b3aaa00d10257fc5 ← Merriam-Webster/monkey/baseline (instance 2 at 52m15.698662181s)
	//   crash:b66c93a1e9d81ff1 ← AbsWorkout/monkey/baseline (instance 0 at 44m19.637955266s)
	//   crash:b72a945b0433bfbd ← Merriam-Webster/monkey/baseline (instance 0 at 14m48.098257835s)
	//   crash:bc14cba4b72a7e56 ← Google Translate/monkey/baseline (instance 3 at 39m22.520549312s)
	//   crash:c093e3e91f75cc99 ← Google Translate/ape/taopt-duration (instance 3 at 13m59.314146479s)
	//   crash:c6cb4fa53dfe6033 ← Google Translate/ape/baseline (instance 0 at 15m31.154217641s)
	//   crash:d0d8395cfd1bfbb9 ← AbsWorkout/ape/taopt-duration (instance 3 at 8m40.342526107s)
	//   crash:db1277a3138ea14d ← Merriam-Webster/monkey/baseline (instance 0 at 39m8.313779542s)
	//   crash:de2257857f8cb658 ← Merriam-Webster/ape/baseline (instance 2 at 33m58.032999859s)
	//   crash:e14de6eab6f857d4 ← AbsWorkout/monkey/baseline (instance 2 at 46m7.860573498s)
	//   crash:e2887d52590eafc2 ← Merriam-Webster/monkey/baseline (instance 0 at 33m32.331793492s)
	//   crash:e2e43e0344113b25 ← AbsWorkout/monkey/baseline (instance 3 at 1m59.113389518s)
	//   crash:e3f1a00eba296be7 ← AbsWorkout/monkey/baseline (instance 0 at 18m4.22869574s)
	//   crash:ea4b5b73badf5975 ← Google Translate/monkey/taopt-duration (instance 3 at 4m38.284656503s)
	//   crash:ebe6e3ba383517ce ← Google Translate/monkey/baseline (instance 4 at 48m53.858050769s)
	//   crash:ed5b49442d72040f ← Merriam-Webster/ape/baseline (instance 1 at 22m27.03689192s)
	//   crash:f5d24c666fc3fc62 ← Google Translate/monkey/taopt-duration (instance 7 at 49m21.952358788s)
	//   crash:f67bf052f08d2817 ← Merriam-Webster/monkey/baseline (instance 2 at 45m37.013900057s)
	//   crash:f6bf9a8a660834ca ← Merriam-Webster/monkey/baseline (instance 0 at 26m38.528407793s)
}

const dollarsPerDeviceMinute = 0.17 // AWS Device Farm, per the paper

// Resourcemode demonstrates TaOPT's resource-constrained mode (Section 5.3):
// testing starts on a single device and the coordinator allocates more only
// as new UI subspaces are identified, within a fixed machine-time budget —
// the setting for teams paying per device-minute (the paper cites AWS Device
// Farm's $0.17/device-minute).
func Example_resourcemode() {
	app := taopt.LoadApp("UC Browser")

	baseline, err := taopt.Run(taopt.RunConfig{
		App:     app,
		Tool:    "ape",
		Setting: taopt.Baseline,
		Seed:    5,
	})
	if err != nil {
		log.Fatal(err)
	}

	budget := 5 * taopt.Hour // the same 5 machine-hours the baseline burns
	optimized, err := taopt.Run(taopt.RunConfig{
		App:           app,
		Tool:          "ape",
		Setting:       taopt.TaOPTResource,
		MachineBudget: budget,
		Seed:          5,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Ape on %s, %v machine-time budget\n\n", app.Name, budget)
	fmt.Printf("%-34s %14s %14s\n", "", "baseline 5×1h", "TaOPT resource")
	fmt.Printf("%-34s %14d %14d\n", "methods covered", baseline.Union.Count(), optimized.Union.Count())
	fmt.Printf("%-34s %14v %14v\n", "wall-clock used", baseline.WallUsed, optimized.WallUsed)
	fmt.Printf("%-34s %14v %14v\n", "machine time used", baseline.MachineUsed.Round(taopt.Second), optimized.MachineUsed.Round(taopt.Second))
	fmt.Printf("%-34s %14d %14d\n", "instance allocations", len(baseline.Instances), len(optimized.Instances))

	// The RQ4 economics: machine time needed to match the baseline's final
	// coverage.
	target := baseline.Union.Count()
	if at, ok := optimized.Timeline.MachineToReach(target); ok {
		saved := budget - at
		fmt.Printf("\nTaOPT matched the baseline's %d methods after %v of machine time,\n", target, at.Round(taopt.Second))
		fmt.Printf("leaving %v unused — $%.2f of device time at AWS Device Farm rates.\n",
			saved.Round(taopt.Second), saved.Minutes()*dollarsPerDeviceMinute)
	} else {
		fmt.Printf("\nTaOPT reached %d of the baseline's %d methods within the budget.\n",
			optimized.Union.Count(), target)
	}

	fmt.Println("\nInstance ramp-up (allocation times):")
	for _, inst := range optimized.Instances {
		fmt.Printf("  instance %-3d %v -> %v  (%d methods)\n",
			inst.ID, inst.Allocated.Round(taopt.Second), inst.Released.Round(taopt.Second), inst.Methods.Count())
		if inst.ID > 8 {
			fmt.Printf("  ... and %d more\n", len(optimized.Instances)-9)
			break
		}
	}

	// Output:
	// Ape on UC Browser, 5h0m0s machine-time budget
	//
	//                                     baseline 5×1h TaOPT resource
	// methods covered                             35441          34207
	// wall-clock used                            1h0m0s 1h37m7.41982743s
	// machine time used                          5h0m0s         5h0m3s
	// instance allocations                            5             17
	//
	// TaOPT reached 34207 of the baseline's 35441 methods within the budget.
	//
	// Instance ramp-up (allocation times):
	//   instance 0   0s -> 1h12m7s  (28621 methods)
	//   instance 1   13m41s -> 40m46s  (7385 methods)
	//   instance 2   19m5s -> 35m44s  (2882 methods)
	//   instance 3   26m5s -> 38m19s  (146 methods)
	//   instance 4   36m31s -> 48m35s  (146 methods)
	//   instance 5   40m46s -> 1h8m15s  (6858 methods)
	//   instance 6   41m22s -> 53m4s  (146 methods)
	//   instance 7   47m20s -> 58m51s  (146 methods)
	//   instance 8   52m43s -> 1h4m1s  (146 methods)
	//   instance 9   53m4s -> 1h4m39s  (146 methods)
	//   ... and 8 more
}

// buildProtocol models the protocol's reachable state machine with the same
// primitives as a mobile AUT: one screen per protocol state, one widget per
// message valid in that state. The generator's functionality blocks become
// protocol phases.
func buildProtocol() *taopt.App {
	spec := taopt.NewAppSpec("FTProtocol", 20260705)
	spec.Category = "Protocol"
	spec.Subspaces = 4 // handshake, auth, transfer, recovery
	spec.ScreensMin, spec.ScreensMax = 24, 32
	spec.WidgetsMin, spec.WidgetsMax = 4, 7 // messages valid per state
	spec.ActivitiesMin, spec.ActivitiesMax = 1, 2
	// "Methods" become implementation branches exercised by handling a
	// message in a state.
	spec.VisitMethodsMin, spec.VisitMethodsMax = 10, 30
	spec.WidgetMethodsMin, spec.WidgetMethodsMax = 3, 8
	spec.ExtraMethods = 500
	spec.CrashSites = 8 // protocol-violation bugs
	return taopt.GenerateApp(spec)
}

// Protocol demonstrates the paper's Section 7 discussion: TaOPT's core —
// detecting loosely coupled subspaces online and dedicating them to parallel
// explorers — generalizes to any event-driven system whose state space is
// globally sparse and locally dense.
//
// Here the "app" is a file-transfer protocol implementation: states are
// protocol states (grouped into handshake, authentication, transfer and
// recovery phases), "UI actions" are protocol messages, and the "testing
// tool" is a random message fuzzer. Phases interconnect densely inside and
// sparsely across — the same GS-LD shape as mobile-app functionalities — so
// TaOPT partitions them across fuzzer instances without knowing anything
// about protocols.
func Example_protocol() {
	protocol := buildProtocol()
	fmt.Printf("System under test: %s — %d protocol states in %d phases, %d implementation branches\n\n",
		protocol.Name, len(protocol.Screens), protocol.Subspaces, protocol.MethodCount())

	run := func(setting taopt.Setting) *taopt.RunResult {
		res, err := taopt.Run(taopt.RunConfig{
			App:      protocol,
			Tool:     "monkey", // a random fuzzer over valid messages
			Setting:  setting,
			Duration: 45 * taopt.Minute,
			Seed:     2,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	baseline := run(taopt.Baseline)
	optimized := run(taopt.TaOPTDuration)

	fmt.Printf("%-30s %12s %12s\n", "5 parallel fuzzers, 45 min", "baseline", "TaOPT")
	fmt.Printf("%-30s %12d %12d\n", "branches covered", baseline.Union.Count(), optimized.Union.Count())
	fmt.Printf("%-30s %12d %12d\n", "protocol bugs found", baseline.UniqueCrashes, optimized.UniqueCrashes)
	fmt.Printf("%-30s %12.1f %12.1f\n", "avg visits per state",
		baseline.UIOccurrenceAverage(), optimized.UIOccurrenceAverage())

	fmt.Printf("\nTaOPT partitioned the protocol into %d regions without knowing it is a protocol:\n",
		len(optimized.Subspaces))
	for _, sub := range optimized.Subspaces {
		fmt.Printf("  region %d: %d states, dedicated to fuzzer %d at %v\n",
			sub.ID, len(sub.Members), sub.Owner, sub.FoundAt)
	}
	fmt.Println("\nThe coordinator only ever saw state fingerprints and transition traces —")
	fmt.Println("the same contract Toller provides for mobile UIs (paper, Section 7).")

	// Output:
	// System under test: FTProtocol — 111 protocol states in 5 phases, 7736 implementation branches
	//
	// 5 parallel fuzzers, 45 min         baseline        TaOPT
	// branches covered                       6981         6833
	// protocol bugs found                       7            7
	// avg visits per state                  155.1        113.7
	//
	// TaOPT partitioned the protocol into 7 regions without knowing it is a protocol:
	//   region 0: 20 states, dedicated to fuzzer 7 at 3m9.875553568s
	//   region 1: 27 states, dedicated to fuzzer 9 at 6m34.085943904s
	//   region 2: 10 states, dedicated to fuzzer 13 at 6m58.201554752s
	//   region 3: 5 states, dedicated to fuzzer 10 at 12m11.066088807s
	//   region 4: 10 states, dedicated to fuzzer 12 at 13m43.689593664s
	//   region 5: 19 states, dedicated to fuzzer 14 at 18m58.082126632s
	//   region 6: 7 states, dedicated to fuzzer 11 at 19m50.167888712s
	//
	// The coordinator only ever saw state fingerprints and transition traces —
	// the same contract Toller provides for mobile UIs (paper, Section 7).
}
