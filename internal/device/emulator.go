// Package device simulates Android testing instances: emulator processes that
// run an AUT, execute UI actions with realistic latencies, crash and restart,
// and report method coverage and crashes. A Farm manages allocation and
// de-allocation of instances and accounts machine time (the RQ4 metric).
package device

import (
	"fmt"

	"taopt/internal/app"
	"taopt/internal/coverage"
	"taopt/internal/crash"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Latency bounds for simulated interactions. One UI action — injecting the
// event, the app reacting, the next hierarchy settling — costs on the order
// of a second on an emulator; a crash restart costs several.
const (
	MinActionLatency  = 400 * sim.Duration(1e6) // 400ms
	MaxActionLatency  = 1200 * sim.Duration(1e6)
	MinRestartLatency = 4 * sim.Duration(1e9) // 4s
	MaxRestartLatency = 8 * sim.Duration(1e9)
)

// Action is one executable UI action on the current screen.
type Action struct {
	Kind trace.ActionKind
	// Widget indexes the source screen's widget list for ActionTap.
	Widget int
	// Path locates the acted-on element in the rendered hierarchy.
	Path ui.WidgetPath
}

// Result describes the effect of performing an action.
type Result struct {
	From    app.ScreenID
	To      app.ScreenID
	Crashed bool
	Report  crash.Report // valid when Crashed
	// Latency is the virtual time the action consumed, including any
	// restart penalty.
	Latency sim.Duration
}

// Emulator is one testing instance: an app process plus input injection.
type Emulator struct {
	ID  int
	App *app.App

	rng       *sim.RNG
	cur       app.ScreenID
	backStack []app.ScreenID
	visits    map[app.ScreenID]int
	resume    map[int]app.ScreenID // functionality -> last screen (task state)
	loggedIn  bool
	restarts  int
	screens   screenCache
	// actions is the buffer Actions fills and returns.
	actions []Action

	// Coverage and Crashes are this instance's MiniTrace/Logcat analogues.
	Coverage *coverage.Set
	Crashes  *crash.Log
}

// maxBackStack caps Android-style task depth.
const maxBackStack = 32

// screenCache holds what every render of an app screen has in common,
// indexed by screen ID: a render differs between visits only in its text, so
// its abstract signature and widget paths are fixed per screen. An entry is
// filled on the screen's first use from App.Signature and WidgetPaths,
// without rendering. A Farm shares one cache among the emulators it
// allocates. It is never kept on the App: runs on several goroutines may
// share one App, so nothing is filled lazily on it.
type screenCache []screenInfo

type screenInfo struct {
	sig   ui.Signature
	paths []ui.WidgetPath // nil until the entry is filled
}

func newScreenCache(a *app.App) screenCache { return make(screenCache, len(a.Screens)) }

// NewEmulator boots an instance of a on a fresh emulator with its own
// screen cache. rng must be an independent stream for this instance.
func NewEmulator(id int, a *app.App, rng *sim.RNG) *Emulator {
	return newEmulator(id, a, rng, newScreenCache(a))
}

func newEmulator(id int, a *app.App, rng *sim.RNG, screens screenCache) *Emulator {
	e := &Emulator{
		ID:       id,
		App:      a,
		rng:      rng,
		visits:   make(map[app.ScreenID]int),
		screens:  screens,
		resume:   make(map[int]app.ScreenID),
		Coverage: coverage.NewSet(a.MethodCount()),
		Crashes:  crash.NewLog(a.Name),
	}
	e.launch()
	return e
}

// launch (re)starts the app process, dropping saved task state.
func (e *Emulator) launch() {
	e.backStack = e.backStack[:0]
	for k := range e.resume {
		delete(e.resume, k)
	}
	if e.App.LoginRequired && !e.loggedIn {
		e.showScreen(e.App.Login)
		return
	}
	e.showScreen(e.App.Main)
}

// Relaunch force-stops and restarts the app process. The Toller driver uses
// it as a last resort when Back cannot leave a blocked subspace.
func (e *Emulator) Relaunch() { e.launch() }

// AutoLogin runs the app's auto-login script (the paper writes these by hand
// for apps that gate functionality behind accounts and runs them once per
// instance). It relaunches the app on the main screen.
func (e *Emulator) AutoLogin() {
	if !e.App.LoginRequired {
		return
	}
	e.loggedIn = true
	e.launch()
}

// LoggedIn reports whether the auto-login script has run.
func (e *Emulator) LoggedIn() bool { return e.loggedIn }

// Restarts returns how many times the app crashed and restarted.
func (e *Emulator) Restarts() int { return e.restarts }

// Current returns the current screen ID. Evaluation code may use it; the
// TaOPT core never sees it (it only sees rendered hierarchies via Toller).
func (e *Emulator) Current() app.ScreenID { return e.cur }

func (e *Emulator) showScreen(id app.ScreenID) {
	e.cur = id
	e.visits[id]++
	s := e.App.Screen(id)
	if s.Subspace != 0 {
		e.resume[s.Subspace] = id
	}
	for _, m := range s.VisitMethods {
		e.Coverage.Add(int(m))
	}
}

// Activity returns the Activity of the current screen without rendering it.
func (e *Emulator) Activity() string { return e.App.Screen(e.cur).Activity }

// Render returns the concrete UI hierarchy currently displayed. Repeated
// calls without an intervening action return structurally identical screens.
func (e *Emulator) Render() *ui.Screen {
	return e.App.Render(e.cur, e.visits[e.cur])
}

// current returns the current screen's cache entry, filling it on the
// screen's first use.
func (e *Emulator) current() *screenInfo {
	in := &e.screens[e.cur]
	if in.paths == nil {
		in.sig = e.App.Signature(e.cur)
		in.paths = e.App.Screen(e.cur).WidgetPaths()
	}
	return in
}

// Signature returns the abstract signature of the current screen — that of
// Render().Abstract() — without rendering it.
//
//lint:hotpath
func (e *Emulator) Signature() ui.Signature { return e.current().sig }

// Actions enumerates the executable actions on the current screen: a tap on
// every widget whose path is not in blocked (the Toller driver's entrypoint
// blocks for this screen; nil blocks none), in widget order, then Back,
// which is always available and always last. The slice is the emulator's
// own buffer: it stays valid until the next call to Actions, which
// overwrites it.
//
//lint:hotpath
func (e *Emulator) Actions(blocked map[ui.WidgetPath]bool) []Action {
	out := e.actions[:0]
	for i, p := range e.current().paths {
		if blocked[p] {
			continue
		}
		out = append(out, Action{Kind: trace.ActionTap, Widget: i, Path: p})
	}
	out = append(out, Action{Kind: trace.ActionBack, Widget: -1})
	e.actions = out
	return out
}

// Perform executes the action at virtual time now and returns the result,
// recording coverage and crashes as side effects.
func (e *Emulator) Perform(a Action, now sim.Duration) Result {
	res := Result{From: e.cur, Latency: e.rng.DurationBetween(MinActionLatency, MaxActionLatency)}
	switch a.Kind {
	case trace.ActionBack:
		e.performBack()
	case trace.ActionTap:
		out := e.App.Perform(e.cur, a.Widget, e.rng)
		for _, m := range out.Covered {
			e.Coverage.Add(int(m))
		}
		switch {
		case out.Crash >= 0:
			site := e.App.CrashSites[out.Crash]
			res.Crashed = true
			res.Report = e.Crashes.Record(site.Frames, now, e.ID)
			res.Latency += e.rng.DurationBetween(MinRestartLatency, MaxRestartLatency)
			e.restarts++
			e.launch()
		case out.Next == app.TargetBack:
			e.performBack()
		case out.Next == app.TargetNone:
			// Stay put; no re-show.
		default:
			next := out.Next
			// Crossing into another functionality may resume its saved task
			// state (Android keeps back-stack fragments alive), letting
			// sustained exploration accumulate depth across excursions.
			// Off unless the app opts in via ResumeProb.
			if e.App.ResumeProb > 0 {
				from := e.App.Screen(e.cur).Subspace
				to := e.App.Screen(next).Subspace
				if to != 0 && to != from {
					if saved, ok := e.resume[to]; ok && saved != next && e.rng.Bool(e.App.ResumeProb) {
						next = saved
					}
				}
			}
			if next != e.cur {
				e.pushBack(e.cur)
			}
			e.showScreen(next)
		}
	case trace.ActionLaunch:
		// Launches are synthesized by the crash-restart path and the
		// initial show; a tool never performs one as an input action.
		panic("device: ActionLaunch is emulator-synthesized, not performable")
	default:
		panic(fmt.Sprintf("device: cannot perform action kind %v", a.Kind))
	}
	res.To = e.cur
	return res
}

func (e *Emulator) pushBack(id app.ScreenID) {
	if len(e.backStack) == maxBackStack {
		copy(e.backStack, e.backStack[1:])
		e.backStack = e.backStack[:maxBackStack-1]
	}
	e.backStack = append(e.backStack, id)
}

func (e *Emulator) performBack() {
	if len(e.backStack) == 0 {
		// Back on the task root: Android would background the app; the
		// testing setup immediately foregrounds it again, so this is a no-op
		// re-show of the root screen.
		e.showScreen(e.cur)
		return
	}
	top := e.backStack[len(e.backStack)-1]
	e.backStack = e.backStack[:len(e.backStack)-1]
	e.showScreen(top)
}
