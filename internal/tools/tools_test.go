package tools

import (
	"testing"

	"taopt/internal/app"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/trace"
)

func viewFor(t *testing.T, seed int64) (*toller.Driver, toller.View) {
	t.Helper()
	a := app.MotivatingExample()
	d := toller.NewDriver(device.NewEmulator(0, a, sim.NewRNG(seed)), trace.NewBook(), 0)
	return d, d.View()
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		tool, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tool.Name() != n {
			t.Fatalf("tool %q reports name %q", n, tool.Name())
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Fatal("unknown tool must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on unknown tools")
		}
	}()
	MustNew("nope", 1)
}

// TestToolsReturnValidActions drives each tool for many steps and checks
// every chosen action is one of the view's actions.
func TestToolsReturnValidActions(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, _ := viewFor(t, 42)
			tool := MustNew(name, 7)
			for i := 0; i < 500; i++ {
				v := d.View()
				act := tool.Choose(v)
				found := false
				for _, cand := range v.Actions {
					if cand.Widget == act.Widget && cand.Path == act.Path {
						found = true
					}
				}
				if !found {
					t.Fatalf("step %d: tool chose action not in view: %+v", i, act)
				}
				d.Perform(act, sim.Duration(i)*sim.Duration(1e9))
			}
		})
	}
}

func TestToolsDeterministic(t *testing.T) {
	for _, name := range Names() {
		runOnce := func() []int {
			d, _ := viewFor(t, 1)
			tool := MustNew(name, 99)
			var widgets []int
			for i := 0; i < 200; i++ {
				v := d.View()
				act := tool.Choose(v)
				widgets = append(widgets, act.Widget)
				d.Perform(act, sim.Duration(i)*sim.Duration(1e9))
			}
			return widgets
		}
		a, b := runOnce(), runOnce()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: choice %d differs across identical runs", name, i)
			}
		}
	}
}

func TestToolsDivergeAcrossSeeds(t *testing.T) {
	for _, name := range []string{"monkey", "wctester"} {
		choices := func(seed int64) []int {
			d, _ := viewFor(t, 1)
			tool := MustNew(name, seed)
			var widgets []int
			for i := 0; i < 100; i++ {
				v := d.View()
				act := tool.Choose(v)
				widgets = append(widgets, act.Widget)
				d.Perform(act, 0)
			}
			return widgets
		}
		a, b := choices(1), choices(2)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: different seeds produced identical runs", name)
		}
	}
}

func TestMonkeyUsesBack(t *testing.T) {
	d, _ := viewFor(t, 3)
	m := NewMonkey(5)
	backs := 0
	for i := 0; i < 1000; i++ {
		v := d.View()
		act := m.Choose(v)
		if act.Widget < 0 {
			backs++
		}
		d.Perform(act, 0)
	}
	if backs < 50 || backs > 300 {
		t.Fatalf("monkey pressed Back %d/1000 times, want ≈10%%", backs)
	}
}

// TestApeTriesAllActionsBeforeRepeating checks Ape's systematic property on
// a static screen: with navigation stripped, it must exercise every action
// before re-trying one.
func TestApeSystematicOnState(t *testing.T) {
	// One-screen app: all widgets are no-ops so the state never changes.
	a := &app.App{Name: "OneScreen", Login: -1, Subspaces: 1, NumMethods: 1}
	var ws []app.Widget
	for i := 0; i < 6; i++ {
		ws = append(ws, app.Widget{
			Class: "android.widget.Button", ResourceID: string(rune('a' + i)),
			Label: "w", Target: app.TargetNone, CrashSite: -1,
		})
	}
	a.Screens = []*app.ScreenState{{ID: 0, Activity: "Act", Subspace: 0, Title: "S", Widgets: ws}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	d := toller.NewDriver(device.NewEmulator(0, a, sim.NewRNG(1)), trace.NewBook(), 0)
	ape := NewApe(3)
	seen := make(map[int]int)
	for i := 0; i < 6; i++ {
		v := d.View()
		act := ape.Choose(v)
		if act.Widget >= 0 {
			seen[act.Widget]++
		}
		d.Perform(act, 0)
	}
	// With epsilon noise Ape may occasionally randomise; require it to have
	// spread over at least 4 distinct widgets in 6 steps.
	if len(seen) < 4 {
		t.Fatalf("ape repeated actions while untried ones remained: %v", seen)
	}
}

func TestWCTesterPrefersNovelElements(t *testing.T) {
	d, _ := viewFor(t, 4)
	w := NewWCTester(6)
	// First pass over the hub: choices should be mostly distinct elements.
	seen := make(map[string]bool)
	repeats := 0
	for i := 0; i < 3; i++ {
		v := d.View()
		act := w.Choose(v)
		if act.Widget >= 0 {
			key := elementKey(act.Path)
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
		// Don't perform: stay on the same screen to observe selection only.
	}
	if repeats > 1 {
		t.Fatalf("wctester repeated elements %d times during novelty phase", repeats)
	}
}

func TestElementKeyStripsPosition(t *testing.T) {
	if elementKey("Button#res@1.2") != "Button#res" {
		t.Fatalf("elementKey = %q", elementKey("Button#res@1.2"))
	}
	if elementKey("noposition") != "noposition" {
		t.Fatal("elementKey must pass through malformed paths")
	}
}
