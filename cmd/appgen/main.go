// Command appgen generates, inspects and compiles synthetic evaluation apps.
// Inspection reports structure (screens, activities, functionalities), the
// method universe, crash sites, and a Globally-Sparse / Locally-Dense check
// of the ground-truth UI transition graph (the property Section 4.2's
// Theorem 1 relies on). It is also the scenario compiler: it validates,
// hashes and round-trips the versioned scenario files of internal/scenario.
//
// Usage:
//
//	appgen -app Zedge
//	appgen -name MyApp -seed 7 -subspaces 6   # generate a custom app
//	appgen -compile file.json                 # compile a scenario document
//	appgen -validate file.json                # validate, report all issues
//	appgen -hash file.json                    # print the canonical hash
//	appgen -emit Zedge                        # write a catalog app as a scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/cli"
	"taopt/internal/graph"
	"taopt/internal/scenario"
	"taopt/internal/ui"
)

var fatalf = cli.Fatalf("appgen")

func main() {
	var (
		appName   = flag.String("app", "", "inspect a catalog app (see cmd/taopt -list)")
		name      = flag.String("name", "", "generate a custom app with this name")
		seed      = flag.Int64("seed", 1, "generation seed for -name")
		subspaces = flag.Int("subspaces", 0, "functionalities for -name (0 = default)")
		screens   = flag.Int("screens", 0, "max screens per functionality for -name (0 = default)")

		compile  = flag.String("compile", "", "compile a scenario file and describe the result")
		validate = flag.String("validate", "", "validate a scenario file, reporting every issue")
		hashFile = flag.String("hash", "", "print a scenario file's canonical content hash")
		emit     = flag.String("emit", "", "emit a catalog app as a version-1 scenario document on stdout")
	)
	flag.Parse()

	switch {
	case *compile != "":
		compileCmd(*compile)
		return
	case *validate != "":
		validateCmd(*validate)
		return
	case *hashFile != "":
		hashCmd(*hashFile)
		return
	case *emit != "":
		emitCmd(*emit)
		return
	}

	var aut *app.App
	switch {
	case *appName != "":
		a, err := apps.Load(*appName)
		if err != nil {
			fatalf("%v", err)
		}
		aut = a
	case *name != "":
		spec := app.DefaultSpec(*name, *seed)
		if *subspaces > 0 {
			spec.Subspaces = *subspaces
		}
		if *screens > 0 {
			spec.ScreensMax = *screens
			if spec.ScreensMin > *screens {
				spec.ScreensMin = *screens
			}
		}
		aut = app.Generate(spec)
	default:
		aut = app.MotivatingExample()
	}

	inspect(aut)
}

// compileScenario reads and compiles one scenario file.
func compileScenario(path string) (*scenario.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scenario.Compile(data)
}

// compileCmd compiles a scenario file and summarises the compiled value.
func compileCmd(path string) {
	c, err := compileScenario(path)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	fmt.Printf("kind:   %s (schema v%d)\n", c.Kind, c.Version)
	fmt.Printf("name:   %s\n", c.Name)
	fmt.Printf("hash:   %s\n", c.Hash)
	switch {
	case c.App != nil:
		s := c.App.Spec
		fmt.Printf("app:    seed %d, %d functionalities, %d–%d screens, login %v\n",
			s.Seed, s.Subspaces, s.ScreensMin, s.ScreensMax, c.App.Login)
	case c.FaultPlan != nil:
		cfg := c.FaultPlan.Config
		fmt.Printf("faults: failure rate %g, %d context windows, enabled %v\n",
			cfg.FailureRate, len(cfg.Context), cfg.Enabled())
	case c.Campaign != nil:
		cc := c.Campaign
		fmt.Printf("grid:   %d catalog + %d inline apps × %d tools × %d settings, %d fault variants\n",
			len(cc.Apps), len(cc.InlineApps), len(cc.Tools), len(cc.Settings), len(cc.FaultGrid))
	case c.Run != nil:
		rs := c.Run
		appLabel := rs.AppName
		if rs.App != nil {
			appLabel = rs.App.Spec.Name + " (inline)"
		}
		fmt.Printf("run:    %s × %s × %s, seed %d, faults %v\n",
			appLabel, rs.Tool, rs.Setting, rs.Seed, rs.Faults != nil)
		fmt.Printf("key:    %s\n", rs.ConfigHash)
	}
}

// validateCmd validates a scenario file, printing every issue with its JSON
// path. Exit status 1 on any issue.
func validateCmd(path string) {
	if _, err := compileScenario(path); err != nil {
		fatalf("%s: %v", path, err)
	}
	fmt.Printf("%s: ok\n", path)
}

// hashCmd prints the canonical content hash of a scenario file in the
// conventional "<hash>  <path>" checksum shape. The file is compiled first:
// a hash of an invalid document would pin garbage.
func hashCmd(path string) {
	c, err := compileScenario(path)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	fmt.Printf("%s  %s\n", c.Hash, path)
}

// emitCmd writes a catalog app back out as a scenario document — the
// round-trip that generated the embedded catalog files.
func emitCmd(name string) {
	e, err := apps.Lookup(name)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := scenario.EmitApp(&scenario.App{Spec: e.Spec, Login: e.Login})
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(out)
}

func inspect(a *app.App) {
	fmt.Printf("app:        %s %s\n", a.Name, a.Version)
	fmt.Printf("screens:    %d in %d functionalities (incl. hub)\n", len(a.Screens), a.Subspaces)
	fmt.Printf("methods:    %d (UI-reachable: %d)\n", a.MethodCount(), len(a.ReachableMethods()))
	fmt.Printf("activities: %d\n", len(a.Activities()))
	fmt.Printf("crashes:    %d planted sites\n", len(a.CrashSites))
	fmt.Printf("login:      %v\n", a.LoginRequired)

	// Screens per functionality and per activity.
	bySub := make(map[int]int)
	byAct := make(map[string]int)
	for _, s := range a.Screens {
		bySub[s.Subspace]++
		byAct[s.Activity]++
	}
	subs := make([]int, 0, len(bySub))
	for k := range bySub {
		subs = append(subs, k)
	}
	sort.Ints(subs)
	fmt.Println("\nfunctionality sizes:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, k := range subs {
		label := fmt.Sprintf("functionality %d", k)
		if k == 0 {
			label = "hub"
		}
		fmt.Fprintf(tw, "  %s\t%d screens\n", label, bySub[k])
	}
	tw.Flush()

	// Activities shared across functionalities (what breaks ParaAim).
	actSubs := make(map[string]map[int]bool)
	for _, s := range a.Screens {
		if actSubs[s.Activity] == nil {
			actSubs[s.Activity] = make(map[int]bool)
		}
		actSubs[s.Activity][s.Subspace] = true
	}
	shared := 0
	for _, set := range actSubs {
		if len(set) > 1 {
			shared++
		}
	}
	fmt.Printf("\nactivities spanning >1 functionality: %d of %d\n", shared, len(actSubs))

	// Crash sites with their depth position — shallow sites fall to heavy
	// repetition, deep ones only to sustained exploration.
	fmt.Println("\ncrash sites:")
	blockOf := make(map[int][]int)
	for _, s := range a.Screens {
		blockOf[s.Subspace] = append(blockOf[s.Subspace], int(s.ID))
	}
	for _, s := range a.Screens {
		for w := range s.Widgets {
			if s.Widgets[w].CrashSite < 0 {
				continue
			}
			blk := blockOf[s.Subspace]
			pos := 0
			for p, id := range blk {
				if id == int(s.ID) {
					pos = p
				}
			}
			fmt.Printf("  site %-3d functionality %-2d depth %3.0f%%  trigger %.2f\n",
				s.Widgets[w].CrashSite, s.Subspace,
				100*float64(pos)/float64(len(blk)), s.Widgets[w].CrashProb)
		}
	}

	gsld(a)
}

// gsld builds the ground-truth stochastic transition graph (uniform action
// choice) and reports internal vs cross-functionality conductance — the
// GS-LD property of Section 4.2.
func gsld(a *app.App) {
	b := graph.NewBuilder()
	sigOf := make([]ui.Signature, len(a.Screens))
	for i := range a.Screens {
		sigOf[i] = a.Signature(app.ScreenID(i))
	}
	for i, s := range a.Screens {
		for _, w := range s.Widgets {
			if w.Target >= 0 {
				b.Add(sigOf[i], sigOf[w.Target])
			}
		}
	}
	g := b.Graph()

	// Membership per functionality.
	members := make(map[int][]int)
	for i, s := range a.Screens {
		if v, ok := g.VertexOf(sigOf[i]); ok {
			members[s.Subspace] = append(members[s.Subspace], v)
		}
	}

	var maxCross, sumCross float64
	pairs := 0
	for s1, m1 := range members {
		for s2, m2 := range members {
			if s1 == 0 || s2 == 0 || s1 == s2 {
				continue // the hub couples to everything by design
			}
			c := g.ConductanceSets(m1, m2)
			sumCross += c
			pairs++
			if c > maxCross {
				maxCross = c
			}
		}
	}
	if pairs > 0 {
		fmt.Printf("\nGS-LD check (ground-truth graph, uniform action probabilities):\n")
		fmt.Printf("  cross-functionality conductance: mean %.4f, max %.4f over %d ordered pairs\n",
			sumCross/float64(pairs), maxCross, pairs)
		fmt.Printf("  (loosely coupled subspaces need these ≈ 0; Section 4.1)\n")
	}
}
