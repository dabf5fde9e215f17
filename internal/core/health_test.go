package core

import (
	"testing"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// acceptFor installs a subspace owned by the given instance directly, so
// health tests exercise retirement and re-dedication without replaying the
// whole identification pipeline.
func acceptFor(c *Coordinator, owner int, sigs []ui.Signature, tokens ...int) *Subspace {
	members := make([]ui.Signature, len(tokens))
	for i, tk := range tokens {
		members[i] = sigs[tk]
	}
	c.accept(Candidate{Instance: owner, Entry: sigs[tokens[0]], Members: members, At: c.env.Now()}, members)
	return c.accepted[len(c.accepted)-1]
}

// An owner dying (vanishing from the farm without a release) must be
// detected by the health monitor, its subspace orphaned and re-dedicated to
// the replacement instance.
func TestDeathOrphanRededication(t *testing.T) {
	env := newFakeEnv(3)
	book, sigs := testBook(30)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()
	if len(env.active) != 3 {
		t.Fatal("setup: start")
	}
	sub := acceptFor(c, 0, sigs, 10, 11, 12)
	if sub.Owner != 0 {
		t.Fatal("setup: owner")
	}

	env.kill(0)
	env.now += 30 * second
	c.Tick(env.now)

	st := c.DecisionStats()
	if st[obs.KindDead] != 1 {
		t.Fatalf("deaths = %d, want 1", st[obs.KindDead])
	}
	if len(env.deallocs) != 0 {
		t.Fatalf("dead instance must not be deallocated again, got %v", env.deallocs)
	}
	if len(env.active) != 3 {
		t.Fatalf("active = %d, want 3 (duration mode replaces)", len(env.active))
	}
	newest := env.active[len(env.active)-1]
	if sub.Owner != newest {
		t.Fatalf("subspace owner = %d, want replacement %d", sub.Owner, newest)
	}
	if c.OrphanCount() != 0 {
		t.Fatalf("orphans = %d, want 0", c.OrphanCount())
	}
	if st[obs.KindOrphan] != 1 || st[obs.KindRededicate] == 0 {
		t.Fatalf("orphan stats %+v", st)
	}
	if env.Blocks(newest).IsMember(sigs[11]) {
		t.Fatal("new owner blocked from its inherited subspace")
	}
	// A second tick must not double-count the same death.
	c.Tick(env.now + 30*second)
	if got := c.DecisionStats()[obs.KindDead]; got != 1 {
		t.Fatalf("deaths after second tick = %d, want 1", got)
	}
}

// With DropOrphans, a dead owner's subspace stays blocked for everyone: the
// replacement does not inherit it.
func TestDeathDropOrphansKeepsBlocked(t *testing.T) {
	env := newFakeEnv(3)
	book, sigs := testBook(30)
	cfg := shortCfg()
	cfg.DropOrphans = true
	c := NewCoordinator(cfg, env, env, book)
	c.Start()
	sub := acceptFor(c, 0, sigs, 10, 11, 12)

	env.kill(0)
	env.now += 30 * second
	c.Tick(env.now)

	if sub.Owner != 0 {
		t.Fatalf("dropped orphan was re-dedicated to %d", sub.Owner)
	}
	if got := c.DecisionStats()[obs.KindOrphan]; got != 1 {
		t.Fatalf("dropped orphans = %d, want 1", got)
	}
	newest := env.active[len(env.active)-1]
	if !env.Blocks(newest).IsMember(sigs[11]) {
		t.Fatal("dropped orphan subspace not blocked on the replacement")
	}
}

// When several owners die while the farm is busy, replacements inherit the
// orphans oldest-first once capacity returns.
func TestOldestOrphanRededicatedFirst(t *testing.T) {
	env := newFakeEnv(3)
	book, sigs := testBook(40)
	cfg := shortCfg()
	// Disable hang detection: this env feeds no events, and a surviving
	// instance being declared hung would shuffle the IDs under test.
	cfg.Heartbeat = -1
	c := NewCoordinator(cfg, env, env, book)
	c.Start()
	subA := acceptFor(c, 0, sigs, 10, 11, 12)
	subB := acceptFor(c, 1, sigs, 20, 21, 22)

	env.kill(0)
	env.kill(1)
	env.busy = true
	env.now += 30 * second
	c.Tick(env.now)

	if got := c.DecisionStats()[obs.KindDead]; got != 2 {
		t.Fatalf("deaths = %d, want 2", got)
	}
	if len(env.active) != 1 {
		t.Fatalf("active = %d, want 1 (farm busy, running degraded)", len(env.active))
	}
	if c.OrphanCount() != 2 {
		t.Fatalf("orphans = %d, want 2", c.OrphanCount())
	}

	// Capacity returns; after the backoff both wants are retried.
	env.busy = false
	env.now += 10 * 60 * second
	c.Tick(env.now)

	if len(env.active) != 3 {
		t.Fatalf("active = %d, want 3 after recovery", len(env.active))
	}
	if c.OrphanCount() != 0 {
		t.Fatalf("orphans = %d, want 0 after recovery", c.OrphanCount())
	}
	// Instance 0 died before instance 1 was processed, so subA is the older
	// orphan and goes to the first replacement.
	first, secondNew := env.active[len(env.active)-2], env.active[len(env.active)-1]
	if subA.Owner != first || subB.Owner != secondNew {
		t.Fatalf("owners A=%d B=%d, want A=%d (older orphan first) B=%d",
			subA.Owner, subB.Owner, first, secondNew)
	}
}

// An instance that stops producing trace events while staying allocated is
// hung: the health monitor releases it after the heartbeat window and
// replaces it.
func TestHangDetection(t *testing.T) {
	env := newFakeEnv(2)
	book, sigs := testBook(10)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()

	// Instance 1 keeps producing events; instance 0 goes silent. Ten
	// 15-second steps pass the 2-minute heartbeat window for instance 0 but
	// keep its replacement (allocated on detection) within its own window.
	for i := 0; i < 10; i++ {
		env.now += 15 * second
		c.OnTransition(trace.Event{
			Instance: 1, At: env.now,
			Action: trace.Action{Kind: trace.ActionTap, Widget: "w"},
			From:   sigs[1], To: sigs[2], Activity: "Act2",
		})
		c.Tick(env.now)
	}

	st := c.DecisionStats()
	if st[obs.KindHung] != 1 {
		t.Fatalf("hangs = %d, want 1: %+v", st[obs.KindHung], st)
	}
	if len(env.deallocs) != 1 || env.deallocs[0] != 0 {
		t.Fatalf("deallocs = %v, want [0] (hung instances are released)", env.deallocs)
	}
	if len(env.active) != 2 {
		t.Fatalf("active = %d, want 2 (replacement)", len(env.active))
	}
	// The live instance must not be reaped.
	for _, id := range env.deallocs {
		if id == 1 {
			t.Fatal("live instance reaped by the heartbeat monitor")
		}
	}
}

// A zero or negative Heartbeat disables hang detection.
func TestHeartbeatDisabled(t *testing.T) {
	for _, hb := range []sim.Duration{-1, 0} {
		env := newFakeEnv(2)
		book, _ := testBook(10)
		cfg := shortCfg()
		cfg.Heartbeat = hb
		c := NewCoordinator(cfg, env, env, book)
		c.Start()
		env.now += 60 * 60 * second
		c.Tick(env.now)
		if len(env.deallocs) != 0 {
			t.Fatalf("heartbeat %v: deallocs = %v with hang detection disabled", hb, env.deallocs)
		}
	}
}

// A trace event that arrives after its instance was released (a delayed
// delivery) must not bring the instance back under health monitoring: no
// later Tick may declare it dead or hung.
func TestRetiredInstanceTrailingEvent(t *testing.T) {
	env := newFakeEnv(1)
	book, sigs := testBook(10)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()

	// Instance 0 stays silent past the heartbeat window: it is released as
	// hung and replaced by instance 1.
	env.now += 3 * 60 * second
	c.Tick(env.now)
	if len(env.deallocs) != 1 || env.deallocs[0] != 0 || len(env.active) != 1 || env.active[0] != 1 {
		t.Fatalf("setup: deallocs %v active %v, want [0] and [1]", env.deallocs, env.active)
	}

	// A delayed event from instance 0 arrives after its release.
	c.OnTransition(trace.Event{
		Instance: 0, At: env.now,
		Action: trace.Action{Kind: trace.ActionTap, Widget: "w"},
		From:   sigs[1], To: sigs[2], Activity: "Act2",
	})

	// Instance 1 keeps working well past another heartbeat window.
	for i := 0; i < 20; i++ {
		env.now += 15 * second
		c.OnTransition(trace.Event{
			Instance: 1, At: env.now,
			Action: trace.Action{Kind: trace.ActionTap, Widget: "w"},
			From:   sigs[3], To: sigs[4+i%5], Activity: "Act4",
		})
		c.Tick(env.now)
	}

	st := c.DecisionStats()
	if st[obs.KindDead] != 0 || st[obs.KindHung] != 1 {
		t.Fatalf("deaths = %d hangs = %d, want 0 and 1: the retired instance came back", st[obs.KindDead], st[obs.KindHung])
	}
	if len(env.deallocs) != 1 || st[obs.KindReleaseError] != 0 {
		t.Fatalf("deallocs = %v, release errors = %d: the retired instance was released again",
			env.deallocs, st[obs.KindReleaseError])
	}
}

// Backoff timing under a persistently busy farm: retries happen at
// base, then doubling gaps, capped at AllocRetryMax.
func TestAllocBackoffTiming(t *testing.T) {
	cases := []struct {
		name         string
		retry, max   sim.Duration
		wantAttempts []sim.Duration
	}{
		{
			name:  "base10-cap80",
			retry: 10 * second,
			max:   80 * second,
			// Start attempt at t=0 queues the want with backoff 10; tick
			// retries then double: 10, +20, +40, +80, +80 (capped).
			wantAttempts: []sim.Duration{0, 10 * second, 30 * second, 70 * second, 150 * second, 230 * second},
		},
		{
			name:         "base5-cap20",
			retry:        5 * second,
			max:          20 * second,
			wantAttempts: []sim.Duration{0, 5 * second, 15 * second, 35 * second, 55 * second, 75 * second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(1)
			env.busy = true
			book, _ := testBook(1)
			cfg := shortCfg()
			cfg.AllocRetry = tc.retry
			cfg.AllocRetryMax = tc.max
			c := NewCoordinator(cfg, env, env, book)
			c.Start()

			horizon := tc.wantAttempts[len(tc.wantAttempts)-1]
			for env.now < horizon {
				env.now += second
				c.Tick(env.now)
			}
			if len(env.attempts) < len(tc.wantAttempts) {
				t.Fatalf("attempts = %v, want %v", env.attempts, tc.wantAttempts)
			}
			for i, want := range tc.wantAttempts {
				if env.attempts[i] != want {
					t.Fatalf("attempt %d at %v, want %v (all: %v)", i, env.attempts[i], want, env.attempts)
				}
			}
			if got := c.DecisionStats()[obs.KindAllocDefer]; got != len(tc.wantAttempts) {
				t.Fatalf("deferred = %d, want %d", got, len(tc.wantAttempts))
			}

			// Capacity returns: the next due retry succeeds and the backoff
			// resets.
			env.busy = false
			env.now += tc.max + second
			c.Tick(env.now)
			if len(env.active) != 1 {
				t.Fatalf("active = %d after recovery, want 1", len(env.active))
			}
			if c.allocBackoff != 0 || c.nextAllocAt != 0 {
				t.Fatalf("backoff not cleared after success: %v next %v", c.allocBackoff, c.nextAllocAt)
			}
		})
	}
}

// A permanent allocation error (not ErrFarmBusy) latches allocation off: no
// retry storm against a farm that is gone.
func TestPermanentAllocErrorDisables(t *testing.T) {
	env := newFakeEnv(2)
	env.allocFail = true
	book, _ := testBook(1)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()
	attempts := len(env.attempts)
	if attempts == 0 {
		t.Fatal("start never attempted allocation")
	}
	for i := 0; i < 100; i++ {
		env.now += 30 * second
		c.Tick(env.now)
	}
	if len(env.attempts) != attempts {
		t.Fatalf("ticks kept retrying a permanent error: %d -> %d attempts",
			attempts, len(env.attempts))
	}
}

// Deallocating an instance the farm no longer knows is an accounting error,
// surfaced in the stats and otherwise harmless.
func TestReleaseErrorSurfaced(t *testing.T) {
	env := newFakeEnv(2)
	book, sigs := testBook(10)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()

	// Instance 0 goes silent AND vanishes right before the hang check would
	// release it: the death branch wins and no bad release happens.
	env.now += 5 * 60 * second
	env.kill(0)
	c.Tick(env.now)
	if got := c.DecisionStats()[obs.KindReleaseError]; got != 0 {
		t.Fatalf("release errors = %d, want 0 (death beats hang)", got)
	}

	// Force the error path directly: retire an ID the env never allocated.
	c.insts[99] = &instState{tracked: true}
	c.retire(99, true)
	if got := c.DecisionStats()[obs.KindReleaseError]; got != 1 {
		t.Fatalf("release errors = %d, want 1", got)
	}
	_ = sigs
}
