package harness

import (
	"sort"

	"taopt/internal/bus"
	"taopt/internal/core"
	"taopt/internal/sim"
	"taopt/internal/trace"
)

// strategy is a parallelization strategy driving a run: it allocates
// instances and may react to transition events and the harness's periodic
// tick. TaOPT's coordinator is one implementation; the preliminary-study
// baselines are the others.
type strategy interface {
	start()
	onEvent(ev trace.Event)
	// tick runs at the harness's sampling cadence; it is the only hook that
	// fires while no trace events arrive, which is when failed instances
	// need noticing. Baselines ignore it — they have no coordinator, so a
	// dead instance simply stays dead, exactly as in an uncoordinated farm.
	tick(now sim.Duration)
}

func newStrategy(r *runner) strategy {
	switch r.cfg.Setting {
	case BaselineParallel:
		return &uncoordinated{r: r, n: r.cfg.Instances}
	case SingleLong:
		return &uncoordinated{r: r, n: 1}
	case ActivityPartition:
		return &activityPartition{r: r}
	case PATSMasterSlave:
		return newPATS(r)
	case TaOPTDuration:
		return newTaOPT(r, core.DurationConstrained)
	case TaOPTResource:
		return newTaOPT(r, core.ResourceConstrained)
	default:
		panic("harness: unknown setting")
	}
}

// uncoordinated launches n instances and never intervenes: parallelization
// by intrinsic randomness only (RQ1's baseline, and the 5-hour single run
// with n = 1).
type uncoordinated struct {
	r *runner
	n int
}

func (s *uncoordinated) start() {
	for i := 0; i < s.n; i++ {
		s.r.Allocate()
	}
}

func (s *uncoordinated) onEvent(trace.Event) {}

func (s *uncoordinated) tick(sim.Duration) {}

// activityPartition is the ParaAim-style baseline of RQ2: the app's Activity
// set (as a static analysis would extract it) is split round-robin across
// instances, and each instance is confined to its share. The launcher
// activity stays allowed everywhere — an instance that cannot even hold the
// home screen could not run at all.
type activityPartition struct {
	r *runner
}

func (s *activityPartition) start() {
	r := s.r
	acts := append([]string(nil), r.cfg.App.Activities()...)
	sort.Strings(acts)
	launcher := r.cfg.App.Screen(r.cfg.App.Main).Activity

	shares := make([][]string, r.cfg.Instances)
	slot := 0
	for _, a := range acts {
		if a == launcher {
			continue
		}
		shares[slot%r.cfg.Instances] = append(shares[slot%r.cfg.Instances], a)
		slot++
	}
	for i := 0; i < r.cfg.Instances; i++ {
		id, err := r.Allocate()
		if err != nil {
			break
		}
		allowed := append([]string{launcher}, shares[i]...)
		if r.cfg.App.LoginRequired {
			allowed = append(allowed, r.cfg.App.Screen(r.cfg.App.Login).Activity)
		}
		r.blocks(id).RestrictActivities(allowed)
	}
}

func (s *activityPartition) onEvent(trace.Event) {}

func (s *activityPartition) tick(sim.Duration) {}

// taopt adapts core.Coordinator to the strategy interface.
type taopt struct {
	coord *core.Coordinator
}

func newTaOPT(r *runner, mode core.Mode) *taopt {
	cfg := core.DefaultConfig(mode)
	if r.cfg.CoreConfig != nil {
		cfg = *r.cfg.CoreConfig
		cfg.Mode = mode
	}
	// Nil when telemetry is off: the coordinator's decision-log emits are
	// nil-safe no-ops.
	cfg.Obs = r.tel.DecisionLog()
	var send bus.Sender = r
	if r.rec != nil {
		send = coordSender{r}
	}
	coord := core.NewCoordinator(cfg, r, send, r.book)
	r.coord = coord
	return &taopt{coord: coord}
}

// coordSender is the coordinator's Sender on a recorded run: every exchange
// it starts — allocations, releases, block commands — is recorded as
// coordinator-sent, so replay can require the replayed coordinator to send
// exactly those.
type coordSender struct{ *runner }

func (c coordSender) Send(cmd bus.Command) bus.Reply {
	c.rec.Coordinating(true)
	defer c.rec.Coordinating(false)
	return c.runner.Send(cmd)
}

func (s *taopt) start() { s.coord.Start() }

func (s *taopt) onEvent(ev trace.Event) { s.coord.OnTransition(ev) }

func (s *taopt) tick(now sim.Duration) { s.coord.Tick(now) }
