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
	"io"
	"os"
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

	inspect(os.Stdout, aut)
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
			s.Seed, s.Subspaces, s.ScreensMin, s.ScreensMax, s.LoginRequired)
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
		fmt.Printf("run:    %s × %s × %s, seed %d, faults %v\n",
			rs.AppName, rs.Tool, rs.Setting, rs.Seed, rs.Faults != nil)
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
	out, err := scenario.EmitApp(&scenario.App{Spec: e.Spec})
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(out)
}

// inspect writes a's structure report: sizes, shared activities, crash
// sites with their depth, and the GS-LD check.
func inspect(w io.Writer, a *app.App) {
	fmt.Fprintf(w, "app:        %s %s\n", a.Name, a.Version)
	fmt.Fprintf(w, "screens:    %d in %d functionalities (incl. hub)\n", len(a.Screens), a.Subspaces)
	fmt.Fprintf(w, "methods:    %d (UI-reachable: %d)\n", a.MethodCount(), len(a.ReachableMethods()))
	fmt.Fprintf(w, "activities: %d\n", len(a.Activities()))
	fmt.Fprintf(w, "crashes:    %d planted sites\n", len(a.CrashSites))
	fmt.Fprintf(w, "login:      %v\n", a.LoginRequired)

	fmt.Fprintln(w, "\nfunctionality sizes:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for k, blk := range a.Functionalities() {
		label := fmt.Sprintf("functionality %d", k)
		if k == 0 {
			label = "hub"
		}
		fmt.Fprintf(tw, "  %s\t%d screens\n", label, len(blk))
	}
	tw.Flush()

	// Activities shared across functionalities (what breaks ParaAim).
	firstSub := make(map[string]int)
	shared := make(map[string]bool)
	for _, s := range a.Screens {
		if k, seen := firstSub[s.Activity]; !seen {
			firstSub[s.Activity] = s.Subspace
		} else if k != s.Subspace {
			shared[s.Activity] = true
		}
	}
	fmt.Fprintf(w, "\nactivities spanning >1 functionality: %d of %d\n", len(shared), len(firstSub))

	// Crash sites with their depth position — shallow sites fall to heavy
	// repetition, deep ones only to sustained exploration.
	fmt.Fprintln(w, "\ncrash sites:")
	depths := a.Depths()
	for _, s := range a.Screens {
		for _, wd := range s.Widgets {
			if wd.CrashSite >= 0 {
				fmt.Fprintf(w, "  site %-3d functionality %-2d depth %3.0f%%  trigger %.2f\n",
					wd.CrashSite, s.Subspace, 100*depths[s.ID], wd.CrashProb)
			}
		}
	}

	if c := gsld(a); c.Pairs > 0 {
		fmt.Fprintf(w, "\nGS-LD check (ground-truth graph, uniform action probabilities):\n")
		fmt.Fprintf(w, "  cross-functionality conductance: mean %.4f, max %.4f over %d ordered pairs\n",
			c.Mean, c.Max, c.Pairs)
		fmt.Fprintf(w, "  (loosely coupled subspaces need these ≈ 0; Section 4.1)\n")
	}
}

// gsld builds the ground-truth stochastic transition graph (uniform action
// choice) and measures the conductance between its functionalities — the
// GS-LD property of Section 4.2. The hub couples to everything by design,
// so it is left out.
func gsld(a *app.App) graph.Coupling {
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
	blocks := a.Functionalities()[1:]
	groups := make([][]int, len(blocks))
	for k, blk := range blocks {
		for _, id := range blk {
			if v, ok := g.VertexOf(sigOf[id]); ok {
				groups[k] = append(groups[k], v)
			}
		}
	}
	return graph.PairwiseConductance(g, groups)
}
