package device

import (
	"errors"
	"slices"
	"testing"

	"taopt/internal/app"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

func testApp() *app.App { return app.MotivatingExample() }

func newEmu(t *testing.T) *Emulator {
	t.Helper()
	return NewEmulator(0, testApp(), sim.NewRNG(1))
}

// tapTo finds the action navigating to a target title and performs it.
func tapAction(t *testing.T, e *Emulator, widget int) Result {
	t.Helper()
	for _, a := range e.Actions(nil) {
		if a.Widget == widget {
			return e.Perform(a, 0)
		}
	}
	t.Fatalf("widget %d not actionable", widget)
	return Result{}
}

func back(e *Emulator) Result {
	return e.Perform(Action{Kind: trace.ActionBack, Widget: -1}, 0)
}

func TestEmulatorStartsAtMain(t *testing.T) {
	e := newEmu(t)
	if e.Current() != testApp().Main {
		t.Fatalf("current = %d, want main", e.Current())
	}
	if e.Coverage.Count() == 0 {
		t.Fatal("showing the main screen must cover its visit methods")
	}
}

func TestNavigationAndBackStack(t *testing.T) {
	e := newEmu(t)
	// Main widget 0 is "Search" -> SearchTabs (screen 1).
	res := tapAction(t, e, 0)
	if res.From != 0 || res.To != 1 {
		t.Fatalf("transition = %d->%d, want 0->1", res.From, res.To)
	}
	if res.Latency < MinActionLatency || res.Latency > MaxActionLatency {
		t.Fatalf("latency %v out of bounds", res.Latency)
	}
	res = back(e)
	if res.To != 0 {
		t.Fatalf("back landed on %d, want 0", res.To)
	}
}

func TestBackOnRootStays(t *testing.T) {
	e := newEmu(t)
	res := back(e)
	if res.To != 0 {
		t.Fatalf("back on root moved to %d", res.To)
	}
}

func TestBackStackCap(t *testing.T) {
	e := newEmu(t)
	// Bounce between screens far more than maxBackStack times.
	for i := 0; i < maxBackStack*3; i++ {
		tapAction(t, e, 0) // into SearchTabs
		tapAction(t, e, 0) // Results -> SelectList
		// jump home via SearchTabs' "Home"? Just keep going; stack caps.
		e.Relaunch()
	}
	if len(e.backStack) > maxBackStack {
		t.Fatalf("back stack grew to %d", len(e.backStack))
	}
}

func TestCrashRestarts(t *testing.T) {
	a := testApp()
	e := NewEmulator(0, a, sim.NewRNG(7))
	// ShopBag's "Checkout" widget (index 0 of screen 4) is the crash site at
	// 5% — drive to it repeatedly until the crash fires.
	fired := false
	for i := 0; i < 2000 && !fired; i++ {
		tapAction(t, e, 0)        // main -> SearchTabs (widget0 = Search)
		tapAction(t, e, 1)        // SearchTabs "Hot items" -> GoodsDetail
		tapAction(t, e, 0)        // GoodsDetail "Add to bag" -> ShopBag
		res := tapAction(t, e, 0) // ShopBag "Checkout" (crash site)
		if res.Crashed {
			fired = true
			if res.To != a.Main {
				t.Fatalf("crash restart landed on %d, want main", res.To)
			}
			if res.Latency < MinRestartLatency {
				t.Fatal("crash must charge a restart latency")
			}
			if e.Crashes.Unique() != 1 {
				t.Fatalf("unique crashes = %d", e.Crashes.Unique())
			}
			if e.Restarts() != 1 {
				t.Fatalf("restarts = %d", e.Restarts())
			}
		} else {
			e.Relaunch()
		}
	}
	if !fired {
		t.Fatal("planted crash never fired")
	}
}

func TestAutoLogin(t *testing.T) {
	spec := app.DefaultSpec("LoginApp", 3)
	spec.LoginRequired = true
	a := app.Generate(spec)
	e := NewEmulator(0, a, sim.NewRNG(1))
	if e.Current() != a.Login {
		t.Fatalf("pre-login screen = %d, want login", e.Current())
	}
	if e.LoggedIn() {
		t.Fatal("logged in before script ran")
	}
	e.AutoLogin()
	if e.Current() != a.Main || !e.LoggedIn() {
		t.Fatal("auto-login must land on main")
	}
}

// resumeApp is a minimal app for resume semantics: hub(0) -> entry(1) ->
// deep(2), with a direct "Home" widget on the deep screen so returning to the
// hub does not re-show shallower functionality screens.
func resumeApp() *app.App {
	a := &app.App{
		Name:       "ResumeApp",
		Login:      -1,
		Subspaces:  2,
		ResumeProb: 1.0,
		NumMethods: 3,
	}
	w := func(target app.ScreenID) app.Widget {
		return app.Widget{Class: "android.widget.Button", ResourceID: "w" + string(rune('a'+int(target)+2)), Label: "w", Target: target, CrashSite: -1}
	}
	a.Screens = []*app.ScreenState{
		{ID: 0, Activity: "Hub", Subspace: 0, Title: "Hub", Widgets: []app.Widget{w(1)}},
		{ID: 1, Activity: "F", Subspace: 1, Title: "Entry", Widgets: []app.Widget{w(2), w(0)}},
		{ID: 2, Activity: "F", Subspace: 1, Title: "Deep", Widgets: []app.Widget{w(0)}},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

func TestResumeSemantics(t *testing.T) {
	a := resumeApp()
	e := NewEmulator(0, a, sim.NewRNG(1))
	tapAction(t, e, 0) // hub -> entry
	tapAction(t, e, 0) // entry -> deep
	tapAction(t, e, 0) // deep -> hub directly (resume state stays at deep)
	if e.Current() != 0 {
		t.Fatalf("expected hub, at %d", e.Current())
	}
	res := tapAction(t, e, 0) // hub tab targets entry, must resume at deep
	if res.To != 2 {
		t.Fatalf("resume landed on %d, want deep (2)", res.To)
	}

	// Without resume, the same navigation lands on the entry screen.
	b := resumeApp()
	b.ResumeProb = 0
	e2 := NewEmulator(0, b, sim.NewRNG(1))
	tapAction(t, e2, 0)
	tapAction(t, e2, 0)
	tapAction(t, e2, 0)
	if res := tapAction(t, e2, 0); res.To != 1 {
		t.Fatalf("without resume landed on %d, want entry (1)", res.To)
	}

	// Relaunch clears saved task state.
	e.Relaunch()
	if res := tapAction(t, e, 0); res.To != 1 {
		t.Fatalf("after relaunch landed on %d, want entry (1)", res.To)
	}
}

// TestActionsRespectDisabled checks that a blocked widget path is left out
// of the actions, and that the rest keep widget order, with Back last.
func TestActionsRespectDisabled(t *testing.T) {
	e := newEmu(t)
	paths := e.App.Screen(e.Current()).WidgetPaths()
	acts := e.Actions(map[ui.WidgetPath]bool{paths[0]: true, "not#a@widget": true})
	if len(acts) != len(paths) {
		t.Fatalf("%d actions for %d widgets with one blocked, want %d", len(acts), len(paths), len(paths))
	}
	for i, a := range acts[:len(acts)-1] {
		if a.Kind != trace.ActionTap || a.Widget != i+1 || a.Path != paths[i+1] {
			t.Fatalf("action %d = %+v, want a tap on widget %d", i, a, i+1)
		}
	}
	// Back remains.
	if acts[len(acts)-1].Kind != trace.ActionBack {
		t.Fatal("Back action missing")
	}
}

// TestFarmSharesScreenCache checks that the emulators of one farm fill and
// read one screen cache, while a standalone emulator has its own.
func TestFarmSharesScreenCache(t *testing.T) {
	f := NewFarm(testApp(), sim.NewRNG(1), 2, false)
	a1, _ := f.Allocate(0)
	a2, _ := f.Allocate(0)
	if &a1.Emu.screens[0] != &a2.Emu.screens[0] {
		t.Fatal("emulators of one farm must share a screen cache")
	}
	if &newEmu(t).screens[0] == &a1.Emu.screens[0] {
		t.Fatal("a standalone emulator must have its own screen cache")
	}
	main := a1.Emu.Current()
	sig := a1.Emu.Signature()
	if got := a2.Emu.screens[main]; got.paths == nil || got.sig != sig {
		t.Fatal("an entry one emulator filled must be visible to the other")
	}
	// Filling an entry costs the widget paths, one string per widget and
	// their slice. A render would allocate a node per element on top.
	in := &a1.Emu.screens[main]
	fill := func() {
		*in = screenInfo{}
		a1.Emu.Signature()
	}
	widgets := len(testApp().Screen(main).Widgets)
	if n := testing.AllocsPerRun(20, fill); n > float64(widgets+1) {
		t.Fatalf("filling a cache entry: %v allocations, want at most %d (no render)", n, widgets+1)
	}
	if in.sig != sig {
		t.Fatal("a refilled entry must keep its signature")
	}
}

// TestFarmActiveOrder drives a farm through random allocate, release and
// fail interleavings. After every step Active and ActiveIDs must equal a
// map-plus-sort model of the live leases, and releasing a retired or never
// allocated ID must fail with ErrDoubleRelease or ErrUnknownInstance.
func TestFarmActiveOrder(t *testing.T) {
	const devices = 4
	rng := sim.NewRNG(7)
	f := NewFarm(testApp(), sim.NewRNG(1), devices, false)
	live := map[int]bool{}
	allocated := 0
	var want []int
	for step := 0; step < 3000; step++ {
		now := sim.Duration(step)
		switch op := rng.Intn(3); op {
		case 0:
			al, err := f.Allocate(now)
			if len(live) == devices {
				if !errors.Is(err, ErrFarmBusy) {
					t.Fatalf("step %d: allocate on a full farm: err = %v, want ErrFarmBusy", step, err)
				}
				break
			}
			if err != nil || al.Emu.ID != allocated {
				t.Fatalf("step %d: allocate = %v, %v; want instance %d", step, al, err, allocated)
			}
			live[allocated] = true
			allocated++
		default:
			id := rng.Intn(allocated+2) - 1 // -1 and allocated were never handed out
			if len(want) > 0 && rng.Bool(0.6) {
				id = want[rng.Intn(len(want))]
			}
			retire := f.Release
			if op == 2 {
				retire = f.Fail
			}
			_, err := retire(id, now)
			switch {
			case live[id]:
				if err != nil {
					t.Fatalf("step %d: retiring live instance %d: %v", step, id, err)
				}
				delete(live, id)
			case id >= 0 && id < allocated:
				if !errors.Is(err, ErrDoubleRelease) {
					t.Fatalf("step %d: retiring retired instance %d: err = %v, want ErrDoubleRelease", step, id, err)
				}
			default:
				if !errors.Is(err, ErrUnknownInstance) {
					t.Fatalf("step %d: retiring unknown instance %d: err = %v, want ErrUnknownInstance", step, id, err)
				}
			}
		}
		want = want[:0]
		for id := range live {
			want = append(want, id)
		}
		slices.Sort(want)
		if got := f.ActiveIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: ActiveIDs = %v, want %v", step, got, want)
		}
		var got []int
		for _, al := range f.Active() {
			got = append(got, al.Emu.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Active IDs = %v, want %v", step, got, want)
		}
	}
	if allocated < 3*devices {
		t.Fatalf("only %d allocations: the interleaving never cycled the farm", allocated)
	}
}

func TestFarmLifecycle(t *testing.T) {
	f := NewFarm(testApp(), sim.NewRNG(1), 2, false)
	a1, err := f.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := f.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(20); !errors.Is(err, ErrFarmBusy) {
		t.Fatalf("third allocation with 2 devices: err = %v, want ErrFarmBusy", err)
	}
	if f.ActiveCount() != 2 {
		t.Fatalf("active = %d", f.ActiveCount())
	}
	if a1.Emu.ID == a2.Emu.ID {
		t.Fatal("instance IDs must be unique")
	}

	if _, err := f.Release(a1.Emu.ID, 100); err != nil {
		t.Fatalf("release: %v", err)
	}
	if f.ActiveCount() != 1 {
		t.Fatal("release did not free a slot")
	}
	if got := a1.MachineTime(999); got != 100 {
		t.Fatalf("released machine time = %v, want 100", got)
	}
	if got := a2.MachineTime(100); got != 90 {
		t.Fatalf("active machine time = %v, want 90", got)
	}
	if got := f.MachineTime(100); got != 190 {
		t.Fatalf("farm machine time = %v, want 190", got)
	}

	// Freed slot can be reused with a fresh ID.
	a3, err := f.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Emu.ID == a1.Emu.ID {
		t.Fatal("IDs must not be recycled")
	}
	if got := len(f.All()); got != 3 {
		t.Fatalf("All = %d allocations", got)
	}
	f.ReleaseAll(200)
	if f.ActiveCount() != 0 {
		t.Fatal("ReleaseAll left actives")
	}
}

func TestFarmAutoLogin(t *testing.T) {
	spec := app.DefaultSpec("L2", 4)
	spec.LoginRequired = true
	a := app.Generate(spec)
	f := NewFarm(a, sim.NewRNG(1), 1, true)
	al, err := f.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	if !al.Emu.LoggedIn() {
		t.Fatal("farm must run the auto-login script")
	}
}

func TestFarmReleaseErrors(t *testing.T) {
	f := NewFarm(testApp(), sim.NewRNG(1), 1, false)
	if _, err := f.Release(42, 0); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("release of unknown ID: err = %v, want ErrUnknownInstance", err)
	}
	al, err := f.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Release(al.Emu.ID, 10); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := f.Release(al.Emu.ID, 20); !errors.Is(err, ErrDoubleRelease) {
		t.Fatalf("second release: err = %v, want ErrDoubleRelease", err)
	}
	if _, err := f.Fail(al.Emu.ID, 20); !errors.Is(err, ErrDoubleRelease) {
		t.Fatalf("fail after release: err = %v, want ErrDoubleRelease", err)
	}
}

// Fail charges the lease up to the moment of death, like a release, and
// marks it failed for reporting.
func TestFarmFailChargesPartialTime(t *testing.T) {
	f := NewFarm(testApp(), sim.NewRNG(1), 2, false)
	al, err := f.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := f.Fail(al.Emu.ID, 50)
	if err != nil {
		t.Fatalf("fail: %v", err)
	}
	if !dead.Failed {
		t.Fatal("failed lease not marked Failed")
	}
	if got := dead.MachineTime(999); got != 50 {
		t.Fatalf("failed lease machine time = %v, want 50", got)
	}
	if got := f.MachineTime(50); got != 50 {
		t.Fatalf("farm machine time = %v, want 50", got)
	}
	if f.FailedCount() != 1 {
		t.Fatalf("failed count = %d, want 1", f.FailedCount())
	}
	if f.ActiveCount() != 0 {
		t.Fatal("failed instance still active")
	}
	// The freed slot is reusable.
	if _, err := f.Allocate(60); err != nil {
		t.Fatalf("allocate after fail: %v", err)
	}
}
