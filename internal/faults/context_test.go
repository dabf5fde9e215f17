package faults

import (
	"testing"

	"taopt/internal/sim"
)

func TestContextWindows(t *testing.T) {
	sec := sim.Duration(1e9)
	cfg := Config{Context: []ContextEvent{
		{Kind: NetworkLoss, Start: 60 * sec, Duration: 30 * sec},
		{Kind: BatteryLow, Start: 300 * sec, Duration: 120 * sec, Delay: 2 * sec},
	}}
	if !cfg.Enabled() {
		t.Fatal("context-only config reports disabled")
	}
	p := newTestPlan(cfg, 1)

	// Outside every window: nothing happens.
	if drop, delay := p.TraceDelivery(0); drop || delay != 0 {
		t.Fatal("trace perturbed outside windows")
	}
	if p.CommandLost(0) || p.AllocationFails(0) {
		t.Fatal("command/alloc perturbed outside windows")
	}

	// Inside the network-loss window: traces drop, commands are swallowed,
	// allocations fail — deterministically, every time.
	for _, now := range []sim.Duration{60 * sec, 75 * sec, 89 * sec} {
		if drop, _ := p.TraceDelivery(now); !drop {
			t.Fatalf("trace at %v not dropped in network-loss window", now)
		}
		if !p.CommandLost(now) {
			t.Fatalf("command at %v not lost in network-loss window", now)
		}
		if !p.AllocationFails(now) {
			t.Fatalf("allocation at %v succeeded in network-loss window", now)
		}
	}
	// The window is half-open: its end is outside.
	if drop, _ := p.TraceDelivery(90 * sec); drop {
		t.Fatal("window end should be exclusive")
	}

	// Inside the battery-low window: traces delayed by the fixed amount.
	if drop, delay := p.TraceDelivery(360 * sec); drop || delay != 2*sec {
		t.Fatalf("battery-low delivery = (%v, %v), want (false, 2s)", drop, delay)
	}
}

// Adding context windows to a probabilistic config must not perturb the
// random streams: outside the windows, every decision matches the
// windowless plan's.
func TestContextDoesNotPerturbStreams(t *testing.T) {
	sec := sim.Duration(1e9)
	base := DefaultConfig(0.2)
	base.CmdLossRate = 0.1
	withCtx := base
	withCtx.Context = []ContextEvent{{Kind: NetworkLoss, Start: 1000000 * sec, Duration: sec}}

	a := newTestPlan(base, 42)
	b := newTestPlan(withCtx, 42)
	for i := 0; i < 500; i++ {
		now := sim.Duration(i) * 5 * sec
		dropA, delayA := a.TraceDelivery(now)
		dropB, delayB := b.TraceDelivery(now)
		if dropA != dropB || delayA != delayB {
			t.Fatalf("trace decision %d diverged", i)
		}
		if a.CommandLost(now) != b.CommandLost(now) {
			t.Fatalf("command decision %d diverged", i)
		}
		if a.AllocationFails(now) != b.AllocationFails(now) {
			t.Fatalf("alloc decision %d diverged", i)
		}
	}
}

func TestContextKindString(t *testing.T) {
	if NetworkLoss.String() != "network-loss" || BatteryLow.String() != "battery-low" {
		t.Fatalf("kind names: %q, %q", NetworkLoss, BatteryLow)
	}
	if ContextKind(9).String() != "context-kind(9)" {
		t.Fatalf("unknown kind: %q", ContextKind(9))
	}
}
