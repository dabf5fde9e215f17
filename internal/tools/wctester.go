package tools

import (
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/ui"
)

// WCTester models the state-of-the-practice WeChat tester [72, 78]. The
// property the paper leans on (Section 3.3) is that WCTester "prioritizes the
// UI actions that trigger Activity transitions": it keeps per-element
// statistics and prefers, in order,
//
//  1. elements it has never tried anywhere (novelty),
//  2. elements previously observed to change the Activity,
//  3. a random enabled element.
//
// It also restarts exploration from the app root periodically, mimicking the
// tool's scripted "go home" recovery.
type WCTester struct {
	rng *sim.RNG
	// triedGlobal marks element identities (class#resource) ever fired.
	triedGlobal map[string]bool
	// activityChanger marks element identities observed to change Activity.
	activityChanger map[string]bool
	// lastActivity/lastKey track the previous step for statistics updates.
	lastActivity string
	lastKey      string
	hasLast      bool
	steps        int
	// cands is the reused buffer for the novel and activity-changer
	// candidates of one step.
	cands []device.Action
}

const (
	wctGoHomeEvery   = 60 // scripted Back-to-root cadence (in actions)
	wctExploreNewP   = 0.70
	wctActivityBiasP = 0.75
)

// NewWCTester returns a fresh WCTester with the given seed.
func NewWCTester(seed int64) *WCTester {
	return &WCTester{
		rng:             sim.NewRNG(seed),
		triedGlobal:     make(map[string]bool),
		activityChanger: make(map[string]bool),
	}
}

// Name implements Tool.
func (w *WCTester) Name() string { return "wctester" }

// elementKey identifies a UI element across screens by class and resource ID
// — WCTester's statistics are element-identity based, not state based.
func elementKey(path ui.WidgetPath) string {
	// WidgetPath is "class#resource@indexes"; strip the position suffix so
	// the same logical element matches across screens.
	s := string(path)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '@' {
			return s[:i]
		}
	}
	return s
}

// Choose implements Tool.
func (w *WCTester) Choose(v toller.View) device.Action {
	w.observe(v)
	w.steps++
	if w.steps%wctGoHomeEvery == 0 {
		return w.record(v, backAction(v))
	}
	ts := taps(v)
	if len(ts) == 0 {
		return w.record(v, backAction(v))
	}

	// 1. Novel elements.
	if w.rng.Bool(wctExploreNewP) {
		novel := w.cands[:0]
		for _, a := range ts {
			if !w.triedGlobal[elementKey(a.Path)] {
				novel = append(novel, a)
			}
		}
		w.cands = novel
		if len(novel) > 0 {
			return w.record(v, novel[w.rng.Intn(len(novel))])
		}
	}

	// 2. Known activity-transition triggers.
	if w.rng.Bool(wctActivityBiasP) {
		changers := w.cands[:0]
		for _, a := range ts {
			if w.activityChanger[elementKey(a.Path)] {
				changers = append(changers, a)
			}
		}
		w.cands = changers
		if len(changers) > 0 {
			return w.record(v, changers[w.rng.Intn(len(changers))])
		}
	}

	// 3. Fallback: uniform random.
	return w.record(v, ts[w.rng.Intn(len(ts))])
}

func (w *WCTester) observe(v toller.View) {
	if w.hasLast && v.Activity != w.lastActivity && w.lastKey != "" {
		w.activityChanger[w.lastKey] = true
	}
}

func (w *WCTester) record(v toller.View, act device.Action) device.Action {
	key := ""
	if act.Widget >= 0 {
		key = elementKey(act.Path)
		w.triedGlobal[key] = true
	}
	w.lastActivity = v.Activity
	w.lastKey = key
	w.hasLast = true
	return act
}
