package faults

import (
	"testing"

	"taopt/internal/sim"
)

func newTestPlan(cfg Config, seed int64) *Plan {
	rng := sim.NewRNG(seed)
	return NewPlan(cfg, rng.Fork(7))
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if _, fated := p.InstanceFate(3); fated {
		t.Fatal("nil plan fated an instance")
	}
	if p.AllocationFails(0) {
		t.Fatal("nil plan failed an allocation")
	}
	if drop, delay := p.TraceDelivery(0); drop || delay != 0 {
		t.Fatal("nil plan touched trace delivery")
	}
	if p.CommandLost(0) {
		t.Fatal("nil plan lost a command")
	}
	if p.Config().Enabled() {
		t.Fatal("nil plan config enabled")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	p := newTestPlan(Config{}, 1)
	for id := 0; id < 100; id++ {
		if _, fated := p.InstanceFate(id); fated {
			t.Fatalf("instance %d fated under zero config", id)
		}
	}
	for i := 0; i < 100; i++ {
		if p.AllocationFails(sim.Duration(i) * sim.Duration(1e9)) {
			t.Fatal("allocation failed under zero config")
		}
		if drop, delay := p.TraceDelivery(0); drop || delay != 0 {
			t.Fatal("trace delivery perturbed under zero config")
		}
		if p.CommandLost(0) {
			t.Fatal("command lost under zero config")
		}
	}
}

// Two plans built from the same seed must make identical decisions, and the
// per-instance fate must not depend on query order.
func TestPlanDeterminism(t *testing.T) {
	cfg := DefaultConfig(0.2)
	a := newTestPlan(cfg, 42)
	b := newTestPlan(cfg, 42)

	var fatesA []Fate
	for id := 0; id < 50; id++ {
		fate, ok := a.InstanceFate(id)
		if !ok {
			fate = Fate{Kind: -1}
		}
		fatesA = append(fatesA, fate)
	}
	// Query b in reverse order: fates are per-instance forks, so order must
	// not matter.
	for id := 49; id >= 0; id-- {
		fate, ok := b.InstanceFate(id)
		if !ok {
			fate = Fate{Kind: -1}
		}
		if fate != fatesA[id] {
			t.Fatalf("instance %d fate differs: %+v vs %+v", id, fate, fatesA[id])
		}
	}

	for i := 0; i < 200; i++ {
		now := sim.Duration(i) * sim.Duration(5e9)
		if a.AllocationFails(now) != b.AllocationFails(now) {
			t.Fatalf("allocation decision %d diverged", i)
		}
		dropA, delayA := a.TraceDelivery(0)
		dropB, delayB := b.TraceDelivery(0)
		if dropA != dropB || delayA != delayB {
			t.Fatalf("trace decision %d diverged", i)
		}
	}
}

// Empirical rates must land near the configured probabilities.
func TestFailureRateCalibration(t *testing.T) {
	cfg := DefaultConfig(0.2)
	p := newTestPlan(cfg, 99)
	const n = 5000
	failed, hung := 0, 0
	for id := 0; id < n; id++ {
		fate, ok := p.InstanceFate(id)
		if !ok {
			continue
		}
		failed++
		if fate.Kind == Hang {
			hung++
		}
		if fate.After < cfg.MinLife || fate.After > cfg.MaxLife {
			t.Fatalf("fate.After %v outside [%v, %v]", fate.After, cfg.MinLife, cfg.MaxLife)
		}
	}
	rate := float64(failed) / n
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("empirical failure rate %.3f, want ~0.2", rate)
	}
	hangFrac := float64(hung) / float64(failed)
	if hangFrac < 0.28 || hangFrac > 0.42 {
		t.Fatalf("empirical hang fraction %.3f, want ~0.35", hangFrac)
	}
}

// A failed allocation opens an outage window during which every attempt
// fails, after which attempts can succeed again.
func TestAllocationOutageWindow(t *testing.T) {
	cfg := Config{AllocFailRate: 0.3, AllocOutage: 100 * sim.Duration(1e9)}
	p := newTestPlan(cfg, 7)

	// Find the first failing attempt.
	var start sim.Duration
	step := sim.Duration(1e9)
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("no allocation failure in 1000 attempts at rate 0.3")
		}
		now := sim.Duration(i) * step
		if p.AllocationFails(now) {
			start = now
			break
		}
	}
	// Everything inside the outage window fails without consuming RNG.
	for _, dt := range []sim.Duration{step, 50 * step, 99 * step} {
		if !p.AllocationFails(start + dt) {
			t.Fatalf("attempt at +%v inside outage window succeeded", dt)
		}
	}
	// Past the window the stream recovers eventually.
	ok := false
	for i := 0; i < 1000; i++ {
		if !p.AllocationFails(start + cfg.AllocOutage + sim.Duration(i)*step) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("allocation never recovered after outage window")
	}
}

func TestTraceDeliveryRates(t *testing.T) {
	cfg := Config{TraceDropRate: 0.05, TraceDelayRate: 0.2, TraceDelayMax: 5 * sim.Duration(1e9)}
	p := newTestPlan(cfg, 13)
	const n = 10000
	drops, delays := 0, 0
	for i := 0; i < n; i++ {
		drop, delay := p.TraceDelivery(0)
		if drop {
			drops++
			if delay != 0 {
				t.Fatal("dropped event carries a delay")
			}
			continue
		}
		if delay > 0 {
			delays++
			if delay > cfg.TraceDelayMax {
				t.Fatalf("delay %v exceeds max %v", delay, cfg.TraceDelayMax)
			}
		}
	}
	if rate := float64(drops) / n; rate < 0.035 || rate > 0.065 {
		t.Fatalf("drop rate %.3f, want ~0.05", rate)
	}
	if rate := float64(delays) / n; rate < 0.15 || rate > 0.25 {
		t.Fatalf("delay rate %.3f, want ~0.19", rate)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Death:        "death",
		Hang:         "hang",
		AllocFailure: "alloc-failure",
		TraceDrop:    "trace-drop",
		TraceDelay:   "trace-delay",
		Kind(42):     "kind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestDefaultConfigScaling(t *testing.T) {
	if DefaultConfig(0).Enabled() {
		t.Fatal("rate 0 config should be disabled")
	}
	c := DefaultConfig(0.2)
	if !c.Enabled() {
		t.Fatal("rate 0.2 config should be enabled")
	}
	if c.AllocFailRate != 0.1 {
		t.Fatalf("AllocFailRate = %v, want 0.1", c.AllocFailRate)
	}
	if c.MaxLife <= c.MinLife {
		t.Fatal("MaxLife must exceed MinLife")
	}
}
