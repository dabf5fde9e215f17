package tools

import (
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/ui"
)

// Ape models the model-based tool of Gu et al. [26]: it maintains an abstract
// state-transition model of the app and systematically drives exploration
// toward the least-exercised actions. Two properties matter for the paper's
// results and are faithfully reproduced:
//
//   - systematic exploration: within one abstract state Ape fires the action
//     with the fewest trials, so two Ape instances with different seeds
//     converge onto very similar frontiers — the highest overlap of the
//     three tools (Figure 3, Table 6);
//   - model guidance: when the current state is saturated (every action well
//     exercised), Ape prefers actions that previously led to states with
//     untried actions.
type Ape struct {
	rng *sim.RNG
	// trials counts how often each (state, action) was fired.
	trials map[ui.Signature]map[ui.WidgetPath]int
	// actions records every action ever offered by a state, so the model
	// knows exactly which remain untried (Ape's state refinement keeps
	// per-state action sets).
	actions map[ui.Signature]map[ui.WidgetPath]bool
	// leadsTo records the observed destination of (state, action).
	leadsTo map[ui.Signature]map[ui.WidgetPath]ui.Signature
	// untried tracks exactly which known states still offer untried actions
	// (kept incrementally so decisions never depend on map iteration order).
	untried map[ui.Signature]bool
	// lastState/lastAction remember the previous step to update the model.
	lastState  ui.Signature
	lastAction ui.WidgetPath
	hasLast    bool
	// perm and cands are reused per-step buffers: the tie-break
	// permutation and the model-guided candidates.
	perm  []int
	cands []device.Action
}

// apeEpsilon is the residual randomness in action selection. Real Ape is
// systematic but far from perfect on industrial apps (abstract-state
// explosion, flaky UI timing); the extra noise models that gap.
const apeEpsilon = 0.12

// NewApe returns a fresh Ape model with the given seed.
func NewApe(seed int64) *Ape {
	return &Ape{
		rng:     sim.NewRNG(seed),
		trials:  make(map[ui.Signature]map[ui.WidgetPath]int),
		actions: make(map[ui.Signature]map[ui.WidgetPath]bool),
		leadsTo: make(map[ui.Signature]map[ui.WidgetPath]ui.Signature),
		untried: make(map[ui.Signature]bool),
	}
}

// Name implements Tool.
func (a *Ape) Name() string { return "ape" }

// Choose implements Tool.
func (a *Ape) Choose(v toller.View) device.Action {
	a.observe(v)

	if a.rng.Bool(apeEpsilon) {
		return a.random(v)
	}

	ts := taps(v)
	if len(ts) == 0 {
		return a.record(v, backAction(v))
	}
	st := a.trials[v.Sig]

	// Least-tried action first (systematic exploration). Back participates
	// with a handicap so Ape prefers forward actions on fresh screens.
	best := ts[0]
	bestTrials := 1 << 30
	if cap(a.perm) < len(ts) {
		a.perm = make([]int, len(ts))
	}
	order := a.rng.PermInto(a.perm[:len(ts)]) // random tie-breaking, seed-dependent
	for _, i := range order {
		act := ts[i]
		n := st[act.Path]
		if n < bestTrials {
			best, bestTrials = act, n
		}
	}
	if bestTrials == 0 {
		return a.record(v, best)
	}

	// Saturated state: follow the model toward a state that still has
	// untried actions, if any outgoing action is known to reach one.
	candidates := a.cands[:0]
	for _, act := range ts {
		dst, ok := a.leadsTo[v.Sig][act.Path]
		if ok && a.hasUntried(dst) {
			candidates = append(candidates, act)
		}
	}
	if back := backAction(v); a.hasUntriedBehindBack(v) {
		candidates = append(candidates, back)
	}
	a.cands = candidates
	if len(candidates) > 0 {
		return a.record(v, candidates[a.rng.Intn(len(candidates))])
	}
	return a.record(v, best)
}

// observe folds the transition that produced the current view into the
// model and registers the view's available actions for the state.
func (a *Ape) observe(v toller.View) {
	if a.hasLast {
		m, ok := a.leadsTo[a.lastState]
		if !ok {
			m = make(map[ui.WidgetPath]ui.Signature)
			a.leadsTo[a.lastState] = m
		}
		m[a.lastAction] = v.Sig
	}
	acts, ok := a.actions[v.Sig]
	if !ok {
		acts = make(map[ui.WidgetPath]bool)
		a.actions[v.Sig] = acts
	}
	for _, act := range v.Actions {
		if act.Widget >= 0 {
			acts[act.Path] = true
		}
	}
	a.refreshUntried(v.Sig)
}

// refreshUntried keeps the untried-state index exact for sig.
func (a *Ape) refreshUntried(sig ui.Signature) {
	if a.hasUntried(sig) {
		a.untried[sig] = true
	} else {
		delete(a.untried, sig)
	}
}

// record bumps the trial counter and remembers the step.
func (a *Ape) record(v toller.View, act device.Action) device.Action {
	st, ok := a.trials[v.Sig]
	if !ok {
		st = make(map[ui.WidgetPath]int)
		a.trials[v.Sig] = st
	}
	st[act.Path]++
	a.refreshUntried(v.Sig)
	a.lastState, a.lastAction, a.hasLast = v.Sig, act.Path, true
	return act
}

// hasUntried reports whether state sig has actions that were offered but
// never fired. Unknown states count as untried (optimism under uncertainty).
func (a *Ape) hasUntried(sig ui.Signature) bool {
	acts, ok := a.actions[sig]
	if !ok {
		return true
	}
	st := a.trials[sig]
	for path := range acts {
		if st[path] == 0 {
			return true
		}
	}
	return false
}

// hasUntriedBehindBack reports whether some state other than the current one
// still has untried actions — if so, backtracking toward it is worthwhile.
func (a *Ape) hasUntriedBehindBack(v toller.View) bool {
	if len(a.untried) > 1 {
		return true
	}
	if len(a.untried) == 1 {
		return !a.untried[v.Sig]
	}
	return false
}

func (a *Ape) random(v toller.View) device.Action {
	ts := taps(v)
	if len(ts) == 0 || a.rng.Bool(0.15) {
		return a.record(v, backAction(v))
	}
	return a.record(v, ts[a.rng.Intn(len(ts))])
}
