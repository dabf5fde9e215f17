package toller

import (
	"testing"

	"taopt/internal/app"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
)

func TestListenersReceiveInOrder(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	var order []string
	d.Subscribe(ListenerFunc(func(ev trace.Event) { order = append(order, "first") }))
	d.Subscribe(ListenerFunc(func(ev trace.Event) { order = append(order, "second") }))
	tap(t, d, "toA")
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("listener order = %v", order)
	}
}

func TestTraceMatchesEmulatorPath(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	tap(t, d, "toA")
	tap(t, d, "deeper")
	tap(t, d, "back")
	tap(t, d, "home")
	evs := d.Trace().Events()
	// launch + 4 taps.
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	wantTo := []app.ScreenID{0, 1, 2, 1, 0}
	for i, ev := range evs {
		if ev.To != sigOf(a, wantTo[i]) {
			t.Fatalf("event %d lands on wrong screen", i)
		}
	}
	// From chains correctly.
	for i := 1; i < len(evs); i++ {
		if evs[i].From != evs[i-1].To {
			t.Fatalf("event %d From does not chain", i)
		}
	}
}

func TestCrashFlagPropagates(t *testing.T) {
	// An app whose only forward widget always crashes.
	a := &app.App{Name: "Crashy", Login: -1, Subspaces: 1, NumMethods: 1}
	a.Screens = []*app.ScreenState{{
		ID: 0, Activity: "A", Subspace: 0, Title: "S",
		Widgets: []app.Widget{{
			Class: "android.widget.Button", ResourceID: "boom", Label: "boom",
			Target: app.TargetNone, CrashSite: 0, CrashProb: 1.0,
		}},
	}}
	a.CrashSites = []app.CrashSite{{ID: 0, Frames: []string{"com.crashy.A.boom(A.java:1)"}}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	d := NewDriver(device.NewEmulator(0, a, sim.NewRNG(1)), trace.NewBook(), 0)
	res := tap(t, d, "boom")
	if !res.Crashed {
		t.Fatal("crash did not fire at probability 1")
	}
	evs := d.Trace().Events()
	if !evs[len(evs)-1].Crashed {
		t.Fatal("trace event lost the crash flag")
	}
	if d.Emulator().Crashes.Unique() != 1 {
		t.Fatal("crash not recorded")
	}
}

func TestViewActionsExcludeBlockedButKeepBack(t *testing.T) {
	a := threeZone()
	d, _ := driverFor(a)
	v := d.View()
	for _, act := range v.Actions {
		if act.Kind == trace.ActionTap {
			d.Blocks().BlockWidget(v.Sig, act.Path)
		}
	}
	v2 := d.View()
	if len(v2.Actions) != 1 || v2.Actions[0].Kind != trace.ActionBack {
		t.Fatalf("fully blocked screen should offer only Back, got %d actions", len(v2.Actions))
	}
}
