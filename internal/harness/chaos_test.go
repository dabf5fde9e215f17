package harness

import (
	"reflect"
	"testing"

	"taopt/internal/faults"
	"taopt/internal/obs"
	"taopt/internal/sim"
)

const chaosMinute = sim.Duration(60e9)

// chaosRun executes one run with the given fault config, failing the test on
// a setup error. Panics inside the run fail the test by crashing it — that is
// the point: a chaos campaign must complete without one.
func chaosRun(t *testing.T, setting Setting, fc *faults.Config, seed int64) *RunResult {
	t.Helper()
	res, err := Run(RunConfig{
		App:      mustLoad(t, "Filters For Selfie"),
		Tool:     "monkey",
		Setting:  setting,
		Duration: 8 * chaosMinute,
		Seed:     seed,
		Faults:   fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosAllSettingsSurvive runs every parallelization setting under a 20%
// fault mix: the run must complete without panicking and still produce a
// coherent result.
func TestChaosAllSettingsSurvive(t *testing.T) {
	fc := faults.DefaultConfig(0.20)
	// Compress failure times into the short test lease so faults actually
	// fire within the 8-minute run.
	fc.MinLife = 1 * chaosMinute
	fc.MaxLife = 5 * chaosMinute
	for _, setting := range []Setting{
		BaselineParallel, TaOPTDuration, TaOPTResource,
		ActivityPartition, SingleLong, PATSMasterSlave,
	} {
		t.Run(setting.String(), func(t *testing.T) {
			res := chaosRun(t, setting, &fc, 11)
			if res.Union == nil || res.Union.Count() == 0 {
				t.Fatal("chaos run produced no coverage at all")
			}
			if res.Transport.Injected() == 0 {
				t.Fatal("chaos run reported no injected faults")
			}
			var sum sim.Duration
			for _, inst := range res.Instances {
				if inst.Released < inst.Allocated {
					t.Fatalf("instance %d released before allocated", inst.ID)
				}
				sum += inst.Released - inst.Allocated
			}
			if sum != res.MachineUsed {
				t.Fatalf("machine time %v != per-instance lease sum %v (failed leases must stay charged)",
					res.MachineUsed, sum)
			}
		})
	}
}

// TestChaosDeterminism: the same seed must reproduce a chaos run byte for
// byte — same coverage, same crash count, same faults, same traces.
func TestChaosDeterminism(t *testing.T) {
	fc := faults.DefaultConfig(0.20)
	fc.MinLife = 1 * chaosMinute
	fc.MaxLife = 5 * chaosMinute
	a := chaosRun(t, TaOPTDuration, &fc, 7)
	b := chaosRun(t, TaOPTDuration, &fc, 7)
	if a.Union.Count() != b.Union.Count() {
		t.Fatalf("coverage differs: %d vs %d", a.Union.Count(), b.Union.Count())
	}
	if a.UniqueCrashes != b.UniqueCrashes {
		t.Fatalf("crashes differ: %d vs %d", a.UniqueCrashes, b.UniqueCrashes)
	}
	if a.FailedInstances != b.FailedInstances {
		t.Fatalf("failed-instance counts differ: %d vs %d", a.FailedInstances, b.FailedInstances)
	}
	if a.Transport != b.Transport {
		t.Fatalf("transport stats differ: %+v vs %+v", a.Transport, b.Transport)
	}
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i := range a.Instances {
		if a.Instances[i].Trace.Len() != b.Instances[i].Trace.Len() {
			t.Fatalf("instance %d trace lengths differ", i)
		}
		if a.Instances[i].Failed != b.Instances[i].Failed {
			t.Fatalf("instance %d failure flags differ", i)
		}
	}
}

// TestChaosCoverageTolerance: with the coordinator replacing dead instances,
// a 20% chaos run must retain at least half the fault-free coverage.
func TestChaosCoverageTolerance(t *testing.T) {
	fc := faults.DefaultConfig(0.20)
	fc.MinLife = 1 * chaosMinute
	fc.MaxLife = 5 * chaosMinute
	clean := chaosRun(t, TaOPTDuration, nil, 3)
	chaos := chaosRun(t, TaOPTDuration, &fc, 3)
	if chaos.Union.Count() < clean.Union.Count()/2 {
		t.Fatalf("chaos coverage %d collapsed below half of fault-free %d",
			chaos.Union.Count(), clean.Union.Count())
	}
	if chaos.OrphansPending != 0 {
		t.Fatalf("%d accepted subspaces never got a replacement owner", chaos.OrphansPending)
	}
}

// TestChaosDeathChargesPartialLease: with every instance fated to die exactly
// two minutes in, each lease must be charged exactly those two minutes and
// marked failed.
func TestChaosDeathChargesPartialLease(t *testing.T) {
	fc := faults.Config{
		FailureRate:  1.0,
		HangFraction: 0,
		MinLife:      2 * chaosMinute,
		MaxLife:      2 * chaosMinute,
	}
	res, err := Run(RunConfig{
		App:      mustLoad(t, "Filters For Selfie"),
		Tool:     "monkey",
		Setting:  BaselineParallel,
		Duration: 10 * chaosMinute,
		Seed:     5,
		Faults:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedInstances != DefaultInstances {
		t.Fatalf("FailedInstances = %d, want %d", res.FailedInstances, DefaultInstances)
	}
	for _, inst := range res.Instances {
		if !inst.Failed {
			t.Fatalf("instance %d not marked failed", inst.ID)
		}
		if got := inst.Released - inst.Allocated; got != 2*chaosMinute {
			t.Fatalf("instance %d lease = %v, want exactly 2m", inst.ID, got)
		}
	}
	if want := sim.Duration(DefaultInstances) * 2 * chaosMinute; res.MachineUsed != want {
		t.Fatalf("MachineUsed = %v, want %v", res.MachineUsed, want)
	}
	if res.Transport.Deaths != DefaultInstances || res.Transport.Hangs != 0 {
		t.Fatalf("transport stats %+v, want %d deaths and no hangs", res.Transport, DefaultInstances)
	}
}

// TestChaosHungLeaseBilledUntilReaped: a hung instance produces no events but
// stays allocated; the coordinator's heartbeat monitor must fail its lease —
// charged up to the reap, not the hang — and boot a replacement.
func TestChaosHungLeaseBilledUntilReaped(t *testing.T) {
	fc := faults.Config{
		FailureRate:  1.0,
		HangFraction: 1.0,
		MinLife:      1 * chaosMinute,
		MaxLife:      1 * chaosMinute,
	}
	res, err := Run(RunConfig{
		App:      mustLoad(t, "Filters For Selfie"),
		Tool:     "monkey",
		Setting:  TaOPTDuration,
		Duration: 10 * chaosMinute,
		Seed:     9,
		Faults:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedInstances == 0 {
		t.Fatal("no hung lease was ever failed")
	}
	if res.CoordinatorStats[obs.KindHung] == 0 {
		t.Fatal("heartbeat monitor detected no hangs")
	}
	// Hang at 1m, heartbeat window 2m: a reaped lease outlives its hang.
	// (Instances that hang right at the wall deadline are charged exactly
	// their hang time — skip those boundary leases.)
	outlived := false
	for _, inst := range res.Instances {
		if inst.Failed && inst.Released-inst.Allocated > 1*chaosMinute {
			outlived = true
			break
		}
	}
	if !outlived {
		t.Fatal("no hung lease was billed past its hang — reaping never charged the wedge time")
	}
}

// TestChaosCampaignThreadsFaults: CampaignConfig.Faults must reach every cell
// and surface in the summaries.
func TestChaosCampaignThreadsFaults(t *testing.T) {
	fc := faults.DefaultConfig(0.20)
	fc.MinLife = 1 * chaosMinute
	fc.MaxLife = 5 * chaosMinute
	cfg := tinyConfig()
	cfg.Faults = &fc
	cell := mustCellT(t, NewCampaign(cfg), "Filters For Selfie", "monkey", TaOPTDuration)
	if cell.FaultsInjected == 0 {
		t.Fatal("chaos campaign cell reports no injected faults")
	}
	again := mustCellT(t, NewCampaign(cfg), "Filters For Selfie", "monkey", TaOPTDuration)
	if cell.Union != again.Union || cell.FaultsInjected != again.FaultsInjected ||
		cell.FailedInstances != again.FailedInstances {
		t.Fatalf("chaos campaign cells not reproducible: %+v vs %+v", cell, again)
	}
}

// TestChaosWireOutageBackoff forces the hostile end of the robustness
// envelope: allocation outages plus command loss. The run must complete (no hang, no panic), resolve deferred
// allocations via the coordinator's capped backoff, retry lost block
// commands, and leave the whole story in the decision log.
func TestChaosWireOutageBackoff(t *testing.T) {
	fc := faults.DefaultConfig(0.20)
	fc.MinLife = 1 * chaosMinute
	fc.MaxLife = 5 * chaosMinute
	fc.AllocFailRate = 0.45
	fc.AllocOutage = chaosMinute / 2
	fc.CmdLossRate = 0.4
	res, err := Run(RunConfig{
		App:       mustLoad(t, "Filters For Selfie"),
		Tool:      "monkey",
		Setting:   TaOPTDuration,
		Duration:  12 * chaosMinute,
		Seed:      11,
		Faults:    &fc,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.AllocFailures == 0 {
		t.Fatalf("outage mix drew no allocation failures: %+v", res.Transport)
	}
	if res.Transport.LostCommands == 0 {
		t.Fatalf("loss mix swallowed no commands: %+v", res.Transport)
	}

	byKind := res.Telemetry.DecisionLog().CountByKind()
	if byKind[obs.KindAllocDefer] == 0 {
		t.Fatal("no alloc-defer decisions despite a forced outage")
	}
	if byKind[obs.KindCmdRetry] == 0 {
		t.Fatal("no cmd-retry decisions despite forced command loss")
	}
	// Backoff resolves: some deferred want later became a real allocation.
	// Every instance past the initial d_max came out of the retry path, so a
	// completed run with outages and full coverage of d_max proves it.
	var lastDefer, lastAlloc int64 = -1, -1
	for _, d := range res.Telemetry.DecisionLog().Decisions() {
		switch d.Kind {
		case obs.KindAllocDefer:
			if lastDefer == -1 {
				lastDefer = d.AtNS
			}
		case obs.KindAllocate:
			lastAlloc = d.AtNS
		}
	}
	if lastDefer == -1 || lastAlloc <= lastDefer {
		t.Fatalf("no allocation after the first deferral (first defer at %d, last alloc at %d): backoff never resolved",
			lastDefer, lastAlloc)
	}
	// Deferral reasons distinguish farm-busy from command timeouts.
	reasons := res.Telemetry.DecisionLog().CountByReason(obs.KindAllocDefer)
	if reasons["farm-busy"] == 0 {
		t.Fatalf("alloc-defer reasons = %v, want farm-busy entries", reasons)
	}
}

// TestCoordinatorStatsTallyDecisionLog: the coordinator's always-on counts
// are its decision log tallied by kind — everything but the analyzer's
// "analyzed" entries — and they do not depend on telemetry being on. The
// run's faults kill and wedge instances and lose block commands, so the
// health, orphan and retransmit kinds are counted too.
func TestCoordinatorStatsTallyDecisionLog(t *testing.T) {
	fc := faults.DefaultConfig(0.8)
	fc.HangFraction = 0.5
	fc.MinLife = 3 * chaosMinute
	fc.MaxLife = 8 * chaosMinute
	fc.AllocFailRate = 0.1
	fc.CmdLossRate = 0.2
	cfg := RunConfig{
		App:       mustLoad(t, "Filters For Selfie"),
		Tool:      "monkey",
		Setting:   TaOPTDuration,
		Duration:  12 * chaosMinute,
		Seed:      5,
		Faults:    &fc,
		Telemetry: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Telemetry.DecisionLog().CountByKind()
	delete(want, obs.KindAnalyzed)
	if want[obs.KindDead] == 0 || want[obs.KindHung] == 0 {
		t.Fatalf("run logged no dead or no hung decision: %v", want)
	}
	if !reflect.DeepEqual(res.CoordinatorStats, want) {
		t.Fatalf("coordinator stats %v, want the decision log's %v", res.CoordinatorStats, want)
	}

	cfg.Telemetry = false
	quiet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quiet.CoordinatorStats, want) {
		t.Fatalf("coordinator stats without telemetry %v, want %v", quiet.CoordinatorStats, want)
	}
}
