package toller

import (
	"testing"

	"taopt/internal/app"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// threeZone builds hub(0) -> a(1) -> a2(2) and hub -> b(3), two one-screen...
// two-zone app used across the driver tests.
func threeZone() *app.App {
	a := &app.App{
		Name:       "Zones",
		Login:      -1,
		Subspaces:  3,
		NumMethods: 1,
	}
	w := func(res string, target app.ScreenID) app.Widget {
		return app.Widget{Class: "android.widget.Button", ResourceID: res, Label: res, Target: target, CrashSite: -1}
	}
	a.Screens = []*app.ScreenState{
		{ID: 0, Activity: "Hub", Subspace: 0, Title: "Hub", Widgets: []app.Widget{w("toA", 1), w("toB", 3)}},
		{ID: 1, Activity: "A", Subspace: 1, Title: "A", Widgets: []app.Widget{w("deeper", 2), w("home", 0)}},
		{ID: 2, Activity: "A", Subspace: 1, Title: "A2", Widgets: []app.Widget{w("back", 1)}},
		{ID: 3, Activity: "B", Subspace: 2, Title: "B", Widgets: []app.Widget{w("home2", 0)}},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

func driverFor(a *app.App) (*Driver, *trace.Book) {
	book := trace.NewBook()
	emu := device.NewEmulator(0, a, sim.NewRNG(1))
	return NewDriver(emu, book, 0), book
}

// tap performs the view action acting on the widget with the given resource.
func tap(t *testing.T, d *Driver, res string) device.Result {
	t.Helper()
	v := d.View()
	for _, act := range v.Actions {
		if act.Node != nil && act.Node.ResourceID == res {
			return d.Perform(act, 0)
		}
	}
	t.Fatalf("no enabled action %q on current screen", res)
	return device.Result{}
}

func sigOf(a *app.App, id app.ScreenID) ui.Signature {
	return a.Render(id, 0).Abstract()
}

func TestDriverEmitsLaunchEvent(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	evs := d.Trace().Events()
	if len(evs) != 1 || evs[0].Action.Kind != trace.ActionLaunch {
		t.Fatalf("events = %+v, want one launch", evs)
	}
	if evs[0].To != sigOf(a, 0) {
		t.Fatal("launch event has wrong destination")
	}
}

func TestDriverRecordsTransitions(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	var got []trace.Event
	d.Subscribe(ListenerFunc(func(ev trace.Event) { got = append(got, ev) }))
	tap(t, d, "toA")
	if len(got) != 1 {
		t.Fatalf("listener got %d events, want 1", len(got))
	}
	ev := got[0]
	if ev.From != sigOf(a, 0) || ev.To != sigOf(a, 1) || ev.Action.Kind != trace.ActionTap {
		t.Fatalf("bad event %+v", ev)
	}
	if ev.Activity != "A" {
		t.Fatalf("activity = %q", ev.Activity)
	}
	if ev.Action.Widget == "" {
		t.Fatal("tap event missing widget path")
	}
}

func TestBlockWidgetDisablesElement(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	// Find toA's path from a view, then block it.
	v := d.View()
	var path ui.WidgetPath
	for _, act := range v.Actions {
		if act.Node != nil && act.Node.ResourceID == "toA" {
			path = act.Path
		}
	}
	d.Blocks().BlockWidget(v.Sig, path)

	v2 := d.View()
	for _, act := range v2.Actions {
		if act.Node != nil && act.Node.ResourceID == "toA" {
			t.Fatal("blocked element still actionable")
		}
	}
	// Other actions unaffected.
	found := false
	for _, act := range v2.Actions {
		if act.Node != nil && act.Node.ResourceID == "toB" {
			found = true
		}
	}
	if !found {
		t.Fatal("unblocked element disappeared")
	}
	// Blocking must not change the screen's identity.
	if v2.Sig != v.Sig {
		t.Fatal("blocking changed the abstract signature")
	}
}

func TestMemberSteering(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	// Block zone A's screens as members, but leave the entry widget enabled
	// (simulating an edge TaOPT has not yet observed).
	d.Blocks().BlockMember(sigOf(a, 1))
	d.Blocks().BlockMember(sigOf(a, 2))

	res := tap(t, d, "toA")
	// The driver must have steered the instance back out.
	if cur := d.Emulator().Current(); cur == 1 || cur == 2 {
		t.Fatalf("instance still inside blocked subspace (screen %d)", cur)
	}
	if res.Latency <= device.MaxActionLatency {
		t.Fatal("steering must consume extra latency")
	}
	// The enforcement transitions are marked.
	var enforced int
	for _, ev := range d.Trace().Events() {
		if ev.Enforced {
			enforced++
		}
	}
	if enforced == 0 {
		t.Fatal("no enforced events recorded")
	}
}

func TestActivityRestriction(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	d.Blocks().RestrictActivities([]string{"Hub", "B"})
	tap(t, d, "toA") // lands on activity A -> must be steered out
	if cur := d.Emulator().Current(); a.Screens[cur].Activity == "A" {
		t.Fatalf("instance stayed on disallowed activity (screen %d)", cur)
	}
	// Allowed navigation works.
	res := tap(t, d, "toB")
	if res.To != 3 {
		t.Fatalf("allowed transition landed on %d", res.To)
	}
}

func TestRestrictActivitiesClear(t *testing.T) {
	b := NewBlockSet()
	b.RestrictActivities([]string{"X"})
	if b.ActivityAllowed("Y") {
		t.Fatal("restriction not applied")
	}
	b.RestrictActivities(nil)
	if !b.ActivityAllowed("Y") {
		t.Fatal("restriction not cleared")
	}
}

func TestBlockSetCounts(t *testing.T) {
	b := NewBlockSet()
	b.BlockWidget(ui.Signature(1), "p1")
	b.BlockWidget(ui.Signature(1), "p2")
	b.BlockWidget(ui.Signature(2), "p1")
	b.BlockMember(ui.Signature(3))
	if b.WidgetBlockCount() != 3 {
		t.Fatalf("WidgetBlockCount = %d", b.WidgetBlockCount())
	}
	if b.MemberCount() != 1 {
		t.Fatalf("MemberCount = %d", b.MemberCount())
	}
	if !b.IsMember(ui.Signature(3)) || b.IsMember(ui.Signature(4)) {
		t.Fatal("IsMember wrong")
	}
	if len(b.BlockedWidgets(ui.Signature(1))) != 2 {
		t.Fatal("BlockedWidgets wrong")
	}
}

func TestSteeringRelaunchFallback(t *testing.T) {
	// An app whose zone cannot be left by Back: entering pushes no usable
	// stack (the zone screen self-loops). The driver must eventually
	// relaunch.
	a := &app.App{Name: "Trap", Login: -1, Subspaces: 2, NumMethods: 1}
	w := func(res string, target app.ScreenID) app.Widget {
		return app.Widget{Class: "android.widget.Button", ResourceID: res, Label: res, Target: target, CrashSite: -1}
	}
	a.Screens = []*app.ScreenState{
		{ID: 0, Activity: "Hub", Subspace: 0, Title: "Hub", Widgets: []app.Widget{w("go", 1)}},
		{ID: 1, Activity: "T", Subspace: 1, Title: "Trap", Widgets: []app.Widget{w("loop", 1)}},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	d, _ := driverFor(a)
	// Block the trap as member; Back from it pops to hub normally, so to
	// force the relaunch path, block the hub too... that would wedge — so
	// instead verify the steer terminates and lands outside the member set.
	d.Blocks().BlockMember(sigOf(a, 1))
	tap(t, d, "go")
	if d.Emulator().Current() == 1 {
		t.Fatal("steering failed to leave the blocked screen")
	}
}

// BenchmarkDriverStep measures one tool step through the driver: a View of
// the current screen, then Perform of a seeded choice among its actions.
func BenchmarkDriverStep(b *testing.B) {
	d, _ := driverFor(app.Generate(app.DefaultSpec("Bench", 7)))
	pick := sim.NewRNG(7)
	var now sim.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := d.View()
		now += d.Perform(v.Actions[pick.Intn(len(v.Actions))], now).Latency
	}
}
