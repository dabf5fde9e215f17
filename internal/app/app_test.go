package app

import (
	"strings"
	"testing"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec("DetApp", 99)
	a, b := Generate(spec), Generate(spec)
	if a.MethodCount() != b.MethodCount() || len(a.Screens) != len(b.Screens) {
		t.Fatal("same spec must generate identical apps")
	}
	for i := range a.Screens {
		sa, sb := a.Screens[i], b.Screens[i]
		if sa.Activity != sb.Activity || len(sa.Widgets) != len(sb.Widgets) {
			t.Fatalf("screen %d differs", i)
		}
		if a.Render(ScreenID(i), 0).Abstract() != b.Render(ScreenID(i), 0).Abstract() {
			t.Fatalf("screen %d renders differently", i)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	a := Generate(DefaultSpec("V", 1))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedStructure(t *testing.T) {
	spec := DefaultSpec("S", 7)
	spec.Subspaces = 6
	a := Generate(spec)
	if a.Subspaces != 7 {
		t.Fatalf("Subspaces = %d, want 7 (6 + hub)", a.Subspaces)
	}
	// Every non-hub functionality exists and has at least ScreensMin screens.
	counts := make(map[int]int)
	for _, s := range a.Screens {
		counts[s.Subspace]++
	}
	for k := 1; k <= 6; k++ {
		if counts[k] < spec.ScreensMin {
			t.Fatalf("functionality %d has %d screens, want >= %d", k, counts[k], spec.ScreensMin)
		}
	}
	// The hub links to every functionality's entry.
	main := a.Screens[a.Main]
	targets := make(map[int]bool)
	for _, w := range main.Widgets {
		if w.Target >= 0 {
			targets[a.Screens[w.Target].Subspace] = true
		}
	}
	for k := 1; k <= 6; k++ {
		if !targets[k] {
			t.Fatalf("hub has no tab into functionality %d", k)
		}
	}
}

func TestGeneratedMethodsDisjoint(t *testing.T) {
	a := Generate(DefaultSpec("M", 3))
	seen := make(map[MethodID]bool)
	check := func(ms []MethodID) {
		for _, m := range ms {
			if seen[m] {
				t.Fatalf("method %d assigned twice", m)
			}
			seen[m] = true
		}
	}
	for _, s := range a.Screens {
		check(s.VisitMethods)
		for _, w := range s.Widgets {
			check(w.Methods)
		}
	}
	if len(seen) >= a.MethodCount() {
		t.Fatal("no unreachable tail methods")
	}
}

func TestReachableMethods(t *testing.T) {
	a := Generate(DefaultSpec("R", 4))
	reachable := a.ReachableMethods()
	if len(reachable) == 0 || len(reachable) >= a.MethodCount() {
		t.Fatalf("reachable = %d of %d", len(reachable), a.MethodCount())
	}
}

func TestRenderAbstractionStableAcrossVisits(t *testing.T) {
	a := Generate(DefaultSpec("T", 5))
	for i := range a.Screens {
		if a.Render(ScreenID(i), 0).Abstract() != a.Render(ScreenID(i), 17).Abstract() {
			t.Fatalf("screen %d signature varies with visit count", i)
		}
	}
}

func TestRenderDistinctScreensDistinctSignatures(t *testing.T) {
	a := Generate(DefaultSpec("D", 6))
	seen := make(map[ui.Signature]int)
	for i := range a.Screens {
		sig := a.Render(ScreenID(i), 0).Abstract()
		if prev, ok := seen[sig]; ok {
			t.Fatalf("screens %d and %d share a signature", prev, i)
		}
		seen[sig] = i
	}
}

func TestRenderClickableOrderMatchesWidgets(t *testing.T) {
	a := Generate(DefaultSpec("C", 8))
	s := a.Screens[a.Main]
	rendered := a.Render(a.Main, 0)
	var clickables []*ui.Node
	rendered.Root.Walk(func(n *ui.Node) bool {
		if n.Clickable {
			clickables = append(clickables, n)
		}
		return true
	})
	if len(clickables) != len(s.Widgets) {
		t.Fatalf("clickables = %d, widgets = %d", len(clickables), len(s.Widgets))
	}
	for i, n := range clickables {
		if n.ResourceID != s.Widgets[i].ResourceID {
			t.Fatalf("clickable %d is %q, want widget %q", i, n.ResourceID, s.Widgets[i].ResourceID)
		}
	}
}

func TestPerformNavigation(t *testing.T) {
	a := Generate(DefaultSpec("P", 9))
	rng := sim.NewRNG(1)
	main := a.Screens[a.Main]
	for w := range main.Widgets {
		out := a.Perform(a.Main, w, rng)
		if out.Crash >= 0 {
			continue
		}
		if out.Next != main.Widgets[w].Target {
			t.Fatalf("widget %d: Next = %d, want %d", w, out.Next, main.Widgets[w].Target)
		}
		if len(out.Covered) != len(main.Widgets[w].Methods) {
			t.Fatalf("widget %d covered %d methods, want all %d (CoveragePerFire unset)",
				w, len(out.Covered), len(main.Widgets[w].Methods))
		}
	}
}

func TestPerformCrashTriggers(t *testing.T) {
	a := Generate(DefaultSpec("K", 10))
	// Find a crash widget and force it until it fires.
	var sid ScreenID
	widx := -1
	for i, s := range a.Screens {
		for w := range s.Widgets {
			if s.Widgets[w].CrashSite >= 0 {
				sid, widx = ScreenID(i), w
				break
			}
		}
		if widx >= 0 {
			break
		}
	}
	if widx < 0 {
		t.Fatal("generator planted no crash widgets")
	}
	rng := sim.NewRNG(2)
	fired := false
	for i := 0; i < 10000; i++ {
		if out := a.Perform(sid, widx, rng); out.Crash >= 0 {
			fired = true
			if len(a.CrashSites[out.Crash].Frames) == 0 {
				t.Fatal("fired crash site has no frames")
			}
			break
		}
	}
	if !fired {
		t.Fatal("crash site never fired in 10000 attempts")
	}
}

func TestCoveragePerFireSubsets(t *testing.T) {
	a := Generate(DefaultSpec("F", 11))
	a.CoveragePerFire = 0.3
	rng := sim.NewRNG(3)
	main := a.Screens[a.Main]
	w := 0
	total := len(main.Widgets[w].Methods)
	if total == 0 {
		t.Skip("first widget has no methods")
	}
	partial := false
	for i := 0; i < 50; i++ {
		out := a.Perform(a.Main, w, rng)
		if len(out.Covered) < total {
			partial = true
		}
		if len(out.Covered) > total {
			t.Fatal("covered more methods than the widget has")
		}
	}
	if !partial {
		t.Fatal("CoveragePerFire=0.3 never produced a partial cover")
	}
}

func TestLoginRequired(t *testing.T) {
	spec := DefaultSpec("L", 12)
	spec.LoginRequired = true
	a := Generate(spec)
	if !a.LoginRequired || a.Login < 0 {
		t.Fatal("login screen missing")
	}
	for _, w := range a.Screens[a.Login].Widgets {
		if w.Target >= 0 {
			t.Fatal("login screen must not navigate without the auto-login script")
		}
	}
}

func TestActivities(t *testing.T) {
	a := Generate(DefaultSpec("A", 13))
	acts := a.Activities()
	if len(acts) < 3 {
		t.Fatalf("only %d activities", len(acts))
	}
	seen := make(map[string]bool)
	for _, act := range acts {
		if seen[act] {
			t.Fatalf("duplicate activity %q", act)
		}
		seen[act] = true
		if !strings.Contains(act, "Activity") {
			t.Fatalf("odd activity name %q", act)
		}
	}
}

func TestSharedActivitiesExist(t *testing.T) {
	// With SharedActivityProb = 1 every functionality reuses a shared or hub
	// activity — the property that breaks activity-granularity partitioning.
	spec := DefaultSpec("Sh", 14)
	spec.SharedActivityProb = 0.99
	a := Generate(spec)
	subsOf := make(map[string]map[int]bool)
	for _, s := range a.Screens {
		if subsOf[s.Activity] == nil {
			subsOf[s.Activity] = make(map[int]bool)
		}
		subsOf[s.Activity][s.Subspace] = true
	}
	shared := 0
	for _, subs := range subsOf {
		if len(subs) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no activity spans multiple functionalities")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Generate(DefaultSpec("Bad", 15))
	a.Screens[1].Widgets[0].Target = ScreenID(len(a.Screens) + 5)
	if err := a.Validate(); err == nil {
		t.Fatal("Validate missed an out-of-range target")
	}
	b := Generate(DefaultSpec("Bad", 15))
	b.Screens[1].Subspace = b.Subspaces
	if err := b.Validate(); err == nil {
		t.Fatal("Validate missed an out-of-range functionality")
	}
}

// TestFunctionalitiesAndDepths checks the ground-truth reader: every
// screen sits in exactly one block, in ID order, with the login screen in
// the hub's; a block's screens step from depth 0 by 1/len and never reach 1.
func TestFunctionalitiesAndDepths(t *testing.T) {
	login := DefaultSpec("Walled", 4)
	login.LoginRequired = true
	for _, a := range []*App{MotivatingExample(), Generate(DefaultSpec("Open", 3)), Generate(login)} {
		blocks, depths := a.Functionalities(), a.Depths()
		if len(blocks) != a.Subspaces || len(depths) != len(a.Screens) {
			t.Fatalf("%s: %d blocks and %d depths, want %d and %d", a.Name, len(blocks), len(depths), a.Subspaces, len(a.Screens))
		}
		seen := 0
		for k, blk := range blocks {
			if len(blk) == 0 {
				t.Fatalf("%s: functionality %d is empty", a.Name, k)
			}
			for pos, id := range blk {
				if a.Screens[id].Subspace != k || pos > 0 && id <= blk[pos-1] {
					t.Fatalf("%s: block %d = %v is not functionality %d in ID order", a.Name, k, blk, k)
				}
				if want := float64(pos) / float64(len(blk)); depths[id] != want {
					t.Fatalf("%s: screen %d depth %v, want %v", a.Name, id, depths[id], want)
				}
			}
			seen += len(blk)
		}
		if seen != len(a.Screens) {
			t.Fatalf("%s: blocks hold %d screens, app has %d", a.Name, seen, len(a.Screens))
		}
		if a.LoginRequired && a.Screens[a.Login].Subspace != 0 {
			t.Fatalf("%s: login screen outside the hub", a.Name)
		}
	}
}

func TestMotivatingExample(t *testing.T) {
	a := MotivatingExample()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Screens) != 18 {
		t.Fatalf("screens = %d, want 18", len(a.Screens))
	}
	// Figure 2's structural claims: the Setting activity appears in two
	// screens, and a MainTabs-activity screen sits inside the shopping
	// functionality.
	settingScreens := 0
	mainTabsScreens := 0
	for _, s := range a.Screens {
		if strings.HasSuffix(s.Activity, ".SettingActivity") {
			settingScreens++
		}
		if strings.HasSuffix(s.Activity, ".MainTabsActivity") {
			mainTabsScreens++
		}
	}
	if settingScreens < 2 {
		t.Fatalf("SettingActivity screens = %d, want >= 2", settingScreens)
	}
	if mainTabsScreens != 2 {
		t.Fatalf("MainTabsActivity screens = %d, want 2 (hub + WishList)", mainTabsScreens)
	}
	if len(a.CrashSites) != 1 {
		t.Fatalf("crash sites = %d, want 1", len(a.CrashSites))
	}
	// The two functionalities are loosely coupled: no direct edge between
	// shopping (1) and account (2) screens.
	for _, s := range a.Screens {
		for _, w := range s.Widgets {
			if w.Target < 0 {
				continue
			}
			from, to := s.Subspace, a.Screens[w.Target].Subspace
			if from != 0 && to != 0 && from != to {
				t.Fatalf("direct edge between functionalities %d -> %d", from, to)
			}
		}
	}
}
