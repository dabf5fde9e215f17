package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"taopt/internal/bus"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// fakeEnv is an in-memory testing cloud for coordinator tests.
type fakeEnv struct {
	now      sim.Duration
	max      int
	active   []int
	nextID   int
	blocks   map[int]*toller.BlockSet
	deallocs []int
	// allocFail makes an Allocate command fail permanently; busy makes it
	// fail with the retryable device.ErrFarmBusy. attempts records when each
	// Allocate command arrived, for backoff-timing tests.
	allocFail bool
	busy      bool
	attempts  []sim.Duration
}

func newFakeEnv(max int) *fakeEnv {
	return &fakeEnv{max: max, blocks: make(map[int]*toller.BlockSet)}
}

func (e *fakeEnv) Now() sim.Duration { return e.now }
func (e *fakeEnv) MaxInstances() int { return e.max }
func (e *fakeEnv) ActiveInstances() []int {
	return append([]int(nil), e.active...)
}
func (e *fakeEnv) allocate() (int, error) {
	e.attempts = append(e.attempts, e.now)
	if e.allocFail {
		return 0, errors.New("farm unreachable")
	}
	if e.busy || len(e.active) >= e.max {
		return 0, fmt.Errorf("fake: %w", device.ErrFarmBusy)
	}
	id := e.nextID
	e.nextID++
	e.active = append(e.active, id)
	e.blocks[id] = toller.NewBlockSet()
	return id, nil
}
func (e *fakeEnv) deallocate(id int) error {
	for i, a := range e.active {
		if a == id {
			e.active = append(e.active[:i], e.active[i+1:]...)
			e.deallocs = append(e.deallocs, id)
			return nil
		}
	}
	return fmt.Errorf("fake: %w: %d", device.ErrUnknownInstance, id)
}

// kill simulates an instance death: it vanishes from the active list
// without a Deallocate command, exactly as a crashed emulator disappears from the
// farm.
func (e *fakeEnv) kill(id int) {
	for i, a := range e.active {
		if a == id {
			e.active = append(e.active[:i], e.active[i+1:]...)
			return
		}
	}
}
func (e *fakeEnv) Blocks(id int) *toller.BlockSet {
	if b, ok := e.blocks[id]; ok {
		return b
	}
	b := toller.NewBlockSet()
	e.blocks[id] = b
	return b
}

// Send lets the fakeEnv double as the coordinator's bus.Sender: lease
// commands act on the fake farm, and block commands are applied to the
// per-instance block sets directly.
func (e *fakeEnv) Send(cmd bus.Command) bus.Reply {
	switch cmd.Kind {
	case bus.Allocate:
		id, err := e.allocate()
		return bus.Reply{Instance: id, Err: err}
	case bus.Deallocate:
		return bus.Reply{Instance: cmd.Instance, Err: e.deallocate(cmd.Instance)}
	case bus.BlockWidget:
		e.Blocks(cmd.Instance).BlockWidget(cmd.Screen, cmd.Widget)
	case bus.BlockMember:
		e.Blocks(cmd.Instance).BlockMember(cmd.Screen)
	}
	return bus.Reply{Instance: cmd.Instance}
}

// testBook registers synthetic screens so the analyzer's similarity matcher
// has exemplars. Screens are made structurally distinct per token.
func testBook(tokens int) (*trace.Book, []ui.Signature) {
	book := trace.NewBook()
	sigs := make([]ui.Signature, tokens)
	for i := 0; i < tokens; i++ {
		var children []*ui.Node
		for j := 0; j <= i%7+1; j++ {
			children = append(children, &ui.Node{
				Class:      "android.widget.Button",
				ResourceID: fmt.Sprintf("w_%d_%d", i, j),
				Enabled:    true, Clickable: true,
			})
		}
		s := &ui.Screen{
			Activity: fmt.Sprintf("Act%d", i),
			Root: &ui.Node{Class: "FrameLayout", ResourceID: fmt.Sprintf("root%d", i),
				Enabled: true, Children: children},
		}
		sigs[i] = observe(book, s)
	}
	return book, sigs
}

// drive feeds a coordinator a synthetic event stream for one instance:
// a launch on screen tokens[0], then taps along tokens.
func drive(c *Coordinator, e *fakeEnv, inst int, sigs []ui.Signature, tokens []int, stepSec int) {
	c.OnTransition(trace.Event{
		Instance: inst, At: e.now,
		Action: trace.Action{Kind: trace.ActionLaunch}, To: sigs[tokens[0]],
	})
	driveMore(c, e, inst, sigs, tokens, stepSec)
}

// driveMore continues an instance's walk without a launch event.
func driveMore(c *Coordinator, e *fakeEnv, inst int, sigs []ui.Signature, tokens []int, stepSec int) {
	for i := 1; i < len(tokens); i++ {
		e.now += sim.Duration(stepSec) * sim.Duration(1e9)
		c.OnTransition(trace.Event{
			Instance: inst, At: e.now,
			Action: trace.Action{Kind: trace.ActionTap, Widget: ui.WidgetPath(fmt.Sprintf("w@%d", tokens[i]))},
			From:   sigs[tokens[i-1]], To: sigs[tokens[i]], Activity: fmt.Sprintf("Act%d", tokens[i]),
		})
	}
}

func shortCfg() Config {
	cfg := DefaultConfig(DurationConstrained)
	cfg.WarmUp = 30 * sim.Duration(1e9)
	cfg.Stagnation = 3600 * sim.Duration(1e9) // keep instances alive in tests
	cfg.Analyzer.AnalyzeEvery = 10
	return cfg
}

// DefaultConfig is the only source of coordinator defaults: nothing re-fills
// a zero field, so every numeric knob it returns must be set, in both modes.
func TestDefaultConfigComplete(t *testing.T) {
	for _, mode := range []Mode{DurationConstrained, ResourceConstrained} {
		cfg := DefaultConfig(mode)
		for _, v := range []reflect.Value{reflect.ValueOf(cfg), reflect.ValueOf(cfg.Analyzer)} {
			for i := 0; i < v.NumField(); i++ {
				f, name := v.Field(i), v.Type().Field(i).Name
				switch f.Kind() {
				case reflect.Int, reflect.Int64, reflect.Float64:
					if name != "Mode" && f.IsZero() {
						t.Errorf("%v: DefaultConfig leaves %s.%s zero", mode, v.Type().Name(), name)
					}
				}
			}
		}
	}
}

func TestCoordinatorStartAllocates(t *testing.T) {
	env := newFakeEnv(5)
	book, _ := testBook(1)
	c := NewCoordinator(DefaultConfig(DurationConstrained), env, env, book)
	c.Start()
	if len(env.active) != 5 {
		t.Fatalf("duration mode started %d instances, want 5", len(env.active))
	}

	env2 := newFakeEnv(5)
	c2 := NewCoordinator(DefaultConfig(ResourceConstrained), env2, env2, book)
	c2.Start()
	if len(env2.active) != 1 {
		t.Fatalf("resource mode started %d instances, want 1", len(env2.active))
	}
}

// regionWalk builds a token walk cycling over region [base, base+5).
func regionWalk(base, steps int) []int {
	var tokens []int
	for i := 0; i < steps; i++ {
		tokens = append(tokens, base+i%5)
	}
	return tokens
}

// roamThenSettle prefixes a walk with a quick roam over screens 0..8 (so the
// coordinator's "subspaces must be a minority of known screens" guard has a
// realistic denominator) before settling in the region.
func roamThenSettle(base, steps int) []int {
	walk := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 0}
	return append(walk, regionWalk(base, steps)...)
}

func TestCoordinatorAcceptsConfirmedSubspace(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(30)
	cfg := shortCfg()
	c := NewCoordinator(cfg, env, env, book)
	c.Start()

	// Instances 0 and 1 both settle in region 10..14 after a quick roam.
	walk := roamThenSettle(10, 120)
	drive(c, env, 0, sigs, walk, 1)
	drive(c, env, 1, sigs, walk, 1)

	if len(c.Subspaces()) == 0 {
		st := c.DecisionStats()
		t.Fatalf("no subspace accepted after two matching reports: %+v", st)
	}
	sub := c.Subspaces()[0]
	if !sub.Members[sigs[10]] {
		t.Fatal("subspace missing a region screen")
	}
	if sub.Members[sigs[0]] {
		t.Fatal("subspace absorbed the launch screen")
	}

	// The subspace is blocked on every instance except the owner.
	for _, id := range env.active {
		blocked := env.Blocks(id).MemberCount() > 0
		if id == sub.Owner && blocked {
			t.Fatal("owner blocked from its own subspace")
		}
		if id != sub.Owner && !blocked {
			t.Fatalf("instance %d not blocked from the accepted subspace", id)
		}
	}
}

func TestCoordinatorSingleInstanceNeedsLLong(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(30)
	cfg := shortCfg()
	c := NewCoordinator(cfg, env, env, book)
	c.Start()

	// One instance settles for just over a minute: not accepted (needs a
	// second reporter or l_long persistence).
	walk := roamThenSettle(10, 80)
	drive(c, env, 0, sigs, walk, 1)
	if len(c.Subspaces()) != 0 {
		t.Fatal("accepted a single unconfirmed report before l_long")
	}

	// Keep going past l_long = 5 minutes: now accepted.
	driveMore(c, env, 0, sigs, regionWalk(10, 300), 1)
	if len(c.Subspaces()) == 0 {
		t.Fatalf("sustained single-instance report not accepted: %+v", c.DecisionStats())
	}
}

func TestCoordinatorLaunchScreenNeverBlocked(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(30)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()
	// Region walks that pass through the hub (token 0) repeatedly.
	var walk []int
	for i := 0; i < 150; i++ {
		if i%20 == 0 {
			walk = append(walk, 0)
		}
		walk = append(walk, 10+i%5)
	}
	drive(c, env, 0, sigs, walk, 1)
	drive(c, env, 1, sigs, walk, 1)
	for _, sub := range c.Subspaces() {
		if sub.Members[sigs[0]] {
			t.Fatal("launch screen became a subspace member")
		}
	}
	for id := range env.blocks {
		if env.Blocks(id).IsMember(sigs[0]) {
			t.Fatal("launch screen blocked")
		}
	}
}

func TestCoordinatorStagnationReapsAndReplaces(t *testing.T) {
	env := newFakeEnv(2)
	book, sigs := testBook(10)
	cfg := shortCfg()
	cfg.Stagnation = 60 * sim.Duration(1e9)
	c := NewCoordinator(cfg, env, env, book)
	c.Start()
	if len(env.active) != 2 {
		t.Fatal("start")
	}

	// Instance 0 keeps seeing the same screen for > stagnation window.
	for i := 0; i < 100; i++ {
		env.now += 2 * sim.Duration(1e9)
		c.OnTransition(trace.Event{
			Instance: 0, At: env.now,
			Action: trace.Action{Kind: trace.ActionTap, Widget: "w"},
			From:   sigs[1], To: sigs[1], Activity: "Act1",
		})
	}
	if len(env.deallocs) == 0 {
		t.Fatal("stagnant instance not de-allocated")
	}
	// Duration mode replaces immediately: capacity stays full.
	if len(env.active) != 2 {
		t.Fatalf("active = %d, want 2 (immediate replacement)", len(env.active))
	}
}

func TestCoordinatorBlocksLearnedEdges(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(30)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()

	walk := roamThenSettle(10, 120)
	drive(c, env, 0, sigs, walk, 1)
	drive(c, env, 1, sigs, walk, 1)
	if len(c.Subspaces()) == 0 {
		t.Fatal("setup: no subspace")
	}
	sub := c.Subspaces()[0]

	// A non-owner observes a NEW edge into the subspace: the coordinator
	// must block that widget on non-owners immediately.
	var nonOwner int
	for _, id := range env.active {
		if id != sub.Owner {
			nonOwner = id
			break
		}
	}
	env.now += sim.Duration(1e9)
	c.OnTransition(trace.Event{
		Instance: nonOwner, At: env.now,
		Action: trace.Action{Kind: trace.ActionTap, Widget: "brand-new-edge"},
		From:   sigs[20], To: sigs[10], Activity: "Act10",
	})
	blocked := env.Blocks(nonOwner).BlockedWidgets(sigs[20])
	if !blocked["brand-new-edge"] {
		t.Fatal("newly learned edge into an owned subspace not blocked")
	}
	if env.Blocks(sub.Owner).BlockedWidgets(sigs[20])["brand-new-edge"] {
		t.Fatal("edge blocked on the owner")
	}
}

func TestCoordinatorOwnerExtension(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(40)
	c := NewCoordinator(shortCfg(), env, env, book)
	c.Start()

	// Expand the coordinator's known-screen denominator first so later
	// candidates are judged against a realistic universe.
	drive(c, env, 3, sigs, roamThenSettle(30, 15), 1)

	walk := roamThenSettle(10, 120)
	drive(c, env, 0, sigs, walk, 1)
	drive(c, env, 1, sigs, walk, 1)
	if len(c.Subspaces()) == 0 {
		t.Fatal("setup: no subspace")
	}
	sub := c.Subspaces()[0]
	before := len(sub.Members)

	// The owner pushes deeper: from region screens into 20..24, connected
	// only from inside the subspace. The coordinator should extend the
	// subspace rather than create a second one.
	var deeper []int
	for i := 0; i < 150; i++ {
		if i%6 == 0 {
			deeper = append(deeper, 10+i%5)
		}
		deeper = append(deeper, 20+i%5)
	}
	driveMore(c, env, sub.Owner, sigs, append([]int{10}, deeper...), 1)
	if len(sub.Members) <= before {
		t.Fatalf("subspace not extended: %d -> %d members (stats %+v)",
			before, len(sub.Members), c.DecisionStats())
	}
}

func TestCoordinatorResourceModeAllocatesOnAcceptance(t *testing.T) {
	env := newFakeEnv(5)
	book, sigs := testBook(30)
	cfg := DefaultConfig(ResourceConstrained)
	cfg.WarmUp = 30 * sim.Duration(1e9)
	cfg.Stagnation = 3600 * sim.Duration(1e9)
	cfg.Analyzer.AnalyzeEvery = 10
	c := NewCoordinator(cfg, env, env, book)
	c.Start()
	if len(env.active) != 1 {
		t.Fatal("resource mode must start with one instance")
	}

	// Long settled exploration: l_long acceptance fires, and a new instance
	// is allocated for the rest of the space.
	walk := roamThenSettle(10, 400)
	drive(c, env, 0, sigs, walk, 1)
	if len(c.Subspaces()) == 0 {
		t.Fatalf("l_long acceptance did not fire: %+v", c.DecisionStats())
	}
	if len(env.active) < 2 {
		t.Fatal("acceptance must allocate a new instance in resource mode")
	}
	// The new instance is blocked from the accepted subspace.
	newest := env.active[len(env.active)-1]
	if env.Blocks(newest).MemberCount() == 0 {
		t.Fatal("new instance not blocked from accepted subspaces")
	}
}

func TestCoordinatorDeterministicAcceptance(t *testing.T) {
	run := func() int {
		env := newFakeEnv(5)
		book, sigs := testBook(30)
		c := NewCoordinator(shortCfg(), env, env, book)
		c.Start()
		walk := roamThenSettle(10, 120)
		drive(c, env, 0, sigs, walk, 1)
		drive(c, env, 1, sigs, walk, 1)
		drive(c, env, 2, sigs, roamThenSettle(20, 120), 1)
		return len(c.Subspaces())
	}
	if run() != run() {
		t.Fatal("coordinator decisions are nondeterministic")
	}
}
