package harness

import (
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/bus"
	"taopt/internal/sim"
)

func smallApp() *app.App {
	s := app.DefaultSpec("SmokeApp", 42)
	s.Subspaces = 5
	s.ScreensMin, s.ScreensMax = 6, 9
	s.VisitMethodsMin, s.VisitMethodsMax = 30, 80
	s.WidgetMethodsMin, s.WidgetMethodsMax = 4, 10
	s.ExtraMethods = 500
	return app.Generate(s)
}

const minute = sim.Duration(60e9)

func TestBaselineParallelSmoke(t *testing.T) {
	res, err := Run(RunConfig{
		App:      smallApp(),
		Tool:     "monkey",
		Setting:  BaselineParallel,
		Duration: 10 * minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(res.Instances); got != 5 {
		t.Fatalf("instances = %d, want 5", got)
	}
	if res.Union.Count() == 0 {
		t.Fatal("no methods covered")
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	last := 0
	for i, p := range res.Timeline {
		if p.Covered < last {
			t.Fatalf("timeline not monotone at %d: %d < %d", i, p.Covered, last)
		}
		last = p.Covered
	}
	if res.WallUsed != 10*minute {
		t.Fatalf("wall used = %v, want 10m", res.WallUsed)
	}
	t.Logf("baseline: union=%d methods, crashes=%d, machine=%v, screens=%d",
		res.Union.Count(), res.UniqueCrashes, res.MachineUsed, res.Book.Len())
}

// TestSendRefusesLateAllocate: once the run has reached its wall deadline or
// ended, runner.Send refuses an Allocate on the client side — the transport
// never carries it — and still passes every other command down.
func TestSendRefusesLateAllocate(t *testing.T) {
	r := newRunner(RunConfig{
		App:      smallApp(),
		Tool:     "monkey",
		Setting:  BaselineParallel,
		Duration: 2 * minute,
		Seed:     1,
	}.withDefaults())
	r.run()
	sent := r.port.Stats().Commands
	for _, tc := range []struct {
		ended bool
		want  string
	}{{false, "wall deadline reached"}, {true, "run ended"}} {
		r.ended = tc.ended
		if rep := r.Send(bus.Command{Kind: bus.Allocate}); rep.Err == nil || !strings.Contains(rep.Err.Error(), tc.want) {
			t.Fatalf("ended=%v: Allocate reply %+v, want a %q refusal", tc.ended, rep, tc.want)
		}
		if got := r.port.Stats().Commands; got != sent {
			t.Fatalf("ended=%v: a refused Allocate reached the transport (%d -> %d commands)", tc.ended, sent, got)
		}
	}
	r.Send(bus.Command{Kind: bus.Deallocate, Instance: 0})
	if got := r.port.Stats().Commands; got != sent+1 {
		t.Fatalf("a Deallocate after the run did not reach the transport (%d -> %d commands)", sent, got)
	}
}

func TestTaOPTDurationSmoke(t *testing.T) {
	res, err := Run(RunConfig{
		App:      smallApp(),
		Tool:     "monkey",
		Setting:  TaOPTDuration,
		Duration: 20 * minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Union.Count() == 0 {
		t.Fatal("no methods covered")
	}
	t.Logf("taopt-duration: union=%d, crashes=%d, subspaces=%d, instances=%d, machine=%v",
		res.Union.Count(), res.UniqueCrashes, len(res.Subspaces), len(res.Instances), res.MachineUsed)
}

func TestTaOPTResourceSmoke(t *testing.T) {
	res, err := Run(RunConfig{
		App:           smallApp(),
		Tool:          "ape",
		Setting:       TaOPTResource,
		Duration:      10 * minute,
		MachineBudget: 50 * minute,
		Seed:          2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The run stops at the first step after the budget trips, so it may
	// overshoot by at most one action's latency per active instance.
	if res.MachineUsed > 50*minute+sim.Duration(10e9) {
		t.Fatalf("machine used %v exceeds budget", res.MachineUsed)
	}
	t.Logf("taopt-resource: union=%d, subspaces=%d, instances=%d, machine=%v wall=%v",
		res.Union.Count(), len(res.Subspaces), len(res.Instances), res.MachineUsed, res.WallUsed)
}

func TestActivityPartitionSmoke(t *testing.T) {
	res, err := Run(RunConfig{
		App:      smallApp(),
		Tool:     "wctester",
		Setting:  ActivityPartition,
		Duration: 10 * minute,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("activity-partition: union=%d", res.Union.Count())
}
