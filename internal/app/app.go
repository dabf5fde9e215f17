// Package app models synthetic Apps Under Test (AUTs).
//
// The paper evaluates TaOPT on 18 industrial Android apps. Those binaries —
// and the emulators to run them — are not available here, so this package
// provides the substitution documented in DESIGN.md: synthetic apps whose UI
// spaces are stochastic directed graphs with the Globally-Sparse /
// Locally-Dense structure that Section 3.2 observes in real apps. Each app
// is a set of screens grouped into loosely coupled functionalities
// ("subspaces"), rendered on demand as Android-style UI hierarchies, with
// methods attached to screens and widgets (the coverage ground truth) and
// crashes planted on rare interaction sites.
package app

import (
	"fmt"
	"strconv"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

// MethodID indexes into an app's method universe.
type MethodID int32

// ScreenID indexes into an app's screen list.
type ScreenID int

// Special widget targets.
const (
	// TargetNone marks a widget that does not navigate (it only covers
	// methods — e.g. a toggle or a like button).
	TargetNone ScreenID = -1
	// TargetBack marks a widget that behaves like the hardware Back key.
	TargetBack ScreenID = -2
)

// Widget is an interactive element of a screen.
type Widget struct {
	Class      string
	ResourceID string
	Label      string
	// Target is the screen this widget navigates to, or TargetNone/TargetBack.
	Target ScreenID
	// Methods covered when the widget fires.
	Methods []MethodID
	// CrashSite is an index into App.CrashSites, or -1.
	CrashSite int
	// CrashProb is the probability that firing the widget triggers the
	// crash site instead of navigating.
	CrashProb float64
	// Volatile marks widgets whose rendered text changes between visits
	// (e.g. product names); the abstraction must be insensitive to this.
	Volatile bool
}

// ScreenState is one node of the app's UI transition graph.
type ScreenState struct {
	ID       ScreenID
	Activity string
	// Subspace is the ground-truth functionality index (0 = hub). It exists
	// for evaluation only; nothing in internal/core may read it.
	Subspace int
	Title    string
	Widgets  []Widget
	// VisitMethods are covered every time the screen is shown.
	VisitMethods []MethodID
	// Decorations adds non-clickable structure rows to the rendered
	// hierarchy, to give the tree similarity something realistic to chew on.
	Decorations int
}

// CrashSite is a planted fault. Firing it produces a crash whose uniqueness
// is determined by the code locations in Frames (Section 6.1, crash
// collection).
type CrashSite struct {
	ID     int
	Frames []string // innermost first, e.g. "com.zedge.net.Fetcher.parse(Fetcher.java:88)"
}

// App is a complete synthetic AUT.
type App struct {
	Name    string
	Version string
	// Screens; Screens[i].ID == ScreenID(i).
	Screens []*ScreenState
	// Main is the screen shown after launch (and after auto-login).
	Main ScreenID
	// Login, if LoginRequired, is the screen shown on launch before the
	// auto-login script runs. Its widgets never reach Main.
	Login         ScreenID
	LoginRequired bool
	// NumMethods is the size of the app's method universe: MethodIDs run
	// from 0 to NumMethods-1. Methods are counted, not named, as MiniTrace
	// coverage is; only crash frames spell out method names.
	NumMethods int
	CrashSites []CrashSite
	// Subspaces is the ground-truth number of functionalities including the
	// hub (evaluation only).
	Subspaces int
	// CoveragePerFire, when in (0, 1), makes each widget firing execute only
	// that fraction of its handler methods (in expectation) — an ablation
	// knob for saturation speed. 0 or 1 means full coverage per fire.
	CoveragePerFire float64
	// ResumeProb, when positive, is the chance that navigating into a
	// functionality restores its saved task state (deep-screen resume)
	// instead of landing on the target screen — an ablation knob for depth
	// accumulation dynamics.
	ResumeProb float64
}

// Validate checks the structural invariants the rest of the system relies on.
func (a *App) Validate() error {
	if len(a.Screens) == 0 {
		return fmt.Errorf("app %s: no screens", a.Name)
	}
	if a.Main < 0 || int(a.Main) >= len(a.Screens) {
		return fmt.Errorf("app %s: main screen %d out of range", a.Name, a.Main)
	}
	if a.LoginRequired && (a.Login < 0 || int(a.Login) >= len(a.Screens)) {
		return fmt.Errorf("app %s: login screen %d out of range", a.Name, a.Login)
	}
	for i, s := range a.Screens {
		if s.ID != ScreenID(i) {
			return fmt.Errorf("app %s: screen %d has ID %d", a.Name, i, s.ID)
		}
		if s.Subspace < 0 || s.Subspace >= a.Subspaces {
			return fmt.Errorf("app %s: screen %d in functionality %d (have %d)", a.Name, i, s.Subspace, a.Subspaces)
		}
		for j, w := range s.Widgets {
			if w.Target >= 0 && int(w.Target) >= len(a.Screens) {
				return fmt.Errorf("app %s: screen %d widget %d targets %d (out of range)", a.Name, i, j, w.Target)
			}
			if w.CrashSite >= len(a.CrashSites) {
				return fmt.Errorf("app %s: screen %d widget %d names crash site %d (have %d)", a.Name, i, j, w.CrashSite, len(a.CrashSites))
			}
			for _, m := range w.Methods {
				if int(m) >= a.NumMethods || m < 0 {
					return fmt.Errorf("app %s: widget method %d out of range", a.Name, m)
				}
			}
		}
		for _, m := range s.VisitMethods {
			if int(m) >= a.NumMethods || m < 0 {
				return fmt.Errorf("app %s: screen method %d out of range", a.Name, m)
			}
		}
	}
	return nil
}

// Functionalities returns the screens of each ground-truth functionality in
// ID order, indexed by Subspace: index 0 is the hub, and the login screen
// counts there. Evaluation only, like Subspace itself.
func (a *App) Functionalities() [][]ScreenID {
	blocks := make([][]ScreenID, a.Subspaces)
	for _, s := range a.Screens {
		blocks[s.Subspace] = append(blocks[s.Subspace], s.ID)
	}
	return blocks
}

// Depths returns each screen's depth in its functionality, indexed by
// ScreenID: its position in its Functionalities block over the block's
// length, so a block's first screen is at 0 and none reaches 1.
func (a *App) Depths() []float64 {
	depths := make([]float64, len(a.Screens))
	for _, blk := range a.Functionalities() {
		for pos, id := range blk {
			depths[id] = float64(pos) / float64(len(blk))
		}
	}
	return depths
}

// MethodCount returns the size of the app's method universe.
func (a *App) MethodCount() int { return a.NumMethods }

// Screen returns the state for id. It panics on an invalid id: screen IDs
// only ever originate from the app itself.
func (a *App) Screen(id ScreenID) *ScreenState {
	return a.Screens[id]
}

// ReachableMethods returns the set of methods attached to screens and widgets
// reachable from Main by forward navigation — an upper bound on what any UI
// tool can cover. Used by tests and by the appgen inspection tool.
func (a *App) ReachableMethods() map[MethodID]bool {
	seen := make(map[ScreenID]bool)
	out := make(map[MethodID]bool)
	stack := []ScreenID{a.Main}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		s := a.Screens[id]
		for _, m := range s.VisitMethods {
			out[m] = true
		}
		for _, w := range s.Widgets {
			for _, m := range w.Methods {
				out[m] = true
			}
			if w.Target >= 0 && !seen[w.Target] {
				stack = append(stack, w.Target)
			}
		}
	}
	return out
}

// Activities returns the app's distinct Activity names in first-declared
// order — what a static-analysis-based partitioner (ParaAim [10]) would
// extract from the manifest.
func (a *App) Activities() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range a.Screens {
		if !seen[s.Activity] {
			seen[s.Activity] = true
			out = append(out, s.Activity)
		}
	}
	return out
}

// The fixed chrome of every rendered screen: a content frame holding a
// toolbar with its title, then a container of the widgets and decoration
// rows.
const (
	classFrame   = "android.widget.FrameLayout"
	classToolbar = "androidx.appcompat.widget.Toolbar"
	classText    = "android.widget.TextView"
	classLinear  = "android.widget.LinearLayout"
	idContent    = "android:id/content"
	idToolbar    = "toolbar"
	idTitle      = "toolbar_title"
	idContainer  = "container"
	idRow        = "row_"
	idRowText    = "row_text_"
)

// Render produces the concrete UI hierarchy of screen id for its visit'th
// visit. Rendering is deterministic given (id, visit): volatile widget text
// incorporates the visit counter, everything else is fixed. The clickable
// elements appear in pre-order in exactly widget order, so the i'th clickable
// of the hierarchy is Widgets[i].
func (a *App) Render(id ScreenID, visit int) *ui.Screen {
	s := a.Screens[id]
	root := &ui.Node{Class: classFrame, ResourceID: idContent, Enabled: true}
	toolbar := &ui.Node{Class: classToolbar, ResourceID: idToolbar, Enabled: true}
	toolbar.Children = []*ui.Node{{
		Class: classText, ResourceID: idTitle, Text: s.Title, Enabled: true,
	}}
	container := &ui.Node{Class: classLinear, ResourceID: idContainer, Enabled: true}
	container.Children = make([]*ui.Node, 0, len(s.Widgets)+s.Decorations)
	seen := strconv.Itoa(visit)
	for _, w := range s.Widgets {
		text := w.Label
		if w.Volatile {
			text = w.Label + " · " + seen
		}
		container.Children = append(container.Children, &ui.Node{
			Class:      w.Class,
			ResourceID: w.ResourceID,
			Text:       text,
			Enabled:    true,
			Clickable:  true,
		})
	}
	for d := 0; d < s.Decorations; d++ {
		n := strconv.Itoa(d)
		text := s.Title + " item " + n
		if d%2 == 1 {
			text += " (seen " + seen + ")"
		}
		container.Children = append(container.Children, &ui.Node{
			Class: classLinear, ResourceID: idRow + n, Enabled: true,
			Children: []*ui.Node{{
				Class: classText, ResourceID: idRowText + n, Text: text, Enabled: true,
			}},
		})
	}
	root.Children = []*ui.Node{toolbar, container}
	return &ui.Screen{Activity: s.Activity, Root: root}
}

// Signature returns the abstract signature of screen id, equal to
// Render(id, visit).Abstract() for every visit (a render differs between
// visits only in its text), without building the hierarchy.
//
//lint:hotpath
func (a *App) Signature(id ScreenID) ui.Signature {
	s := a.Screens[id]
	h := ui.NewHasher(s.Activity)
	h.Open(classFrame, idContent)
	h.Open(classToolbar, idToolbar)
	h.Open(classText, idTitle)
	h.Close()
	h.Close()
	h.Open(classLinear, idContainer)
	for _, w := range s.Widgets {
		h.Open(w.Class, w.ResourceID)
		h.Close()
	}
	for d := 0; d < s.Decorations; d++ {
		h.OpenNumbered(classLinear, idRow, d)
		h.OpenNumbered(classText, idRowText, d)
		h.Close()
		h.Close()
	}
	h.Close()
	h.Close()
	return h.Sum()
}

// WidgetPaths returns the ui.WidgetPath of each widget as Render lays it
// out: widget i is child i of the container, which is the root's child 1.
// Paths hold no text, so they are the same on every visit.
func (s *ScreenState) WidgetPaths() []ui.WidgetPath {
	out := make([]ui.WidgetPath, len(s.Widgets))
	for i, w := range s.Widgets {
		out[i] = ui.WidgetPath(w.Class + "#" + w.ResourceID + "@1." + strconv.Itoa(i))
	}
	return out
}

// Outcome describes the effect of firing a widget.
type Outcome struct {
	// Next is the resulting screen, TargetNone to stay, or TargetBack to pop.
	Next ScreenID
	// Covered are the methods executed by the interaction.
	Covered []MethodID
	// Crash, if non-negative, identifies the crash site that fired; the app
	// process dies and restarts.
	Crash int
}

// Perform fires widget w of screen id. rng decides probabilistic crash
// triggering and — when the app's CoveragePerFire is below 1 — which of the
// handler's methods execute this time. It panics on out-of-range indexes;
// these come from the device layer which derives them from the rendered
// hierarchy.
func (a *App) Perform(id ScreenID, w int, rng *sim.RNG) Outcome {
	s := a.Screens[id]
	wd := &s.Widgets[w]
	covered := wd.Methods
	if a.CoveragePerFire > 0 && a.CoveragePerFire < 1 {
		covered = make([]MethodID, 0, len(wd.Methods))
		for _, m := range wd.Methods {
			if rng.Bool(a.CoveragePerFire) {
				covered = append(covered, m)
			}
		}
	}
	if wd.CrashSite >= 0 && rng.Bool(wd.CrashProb) {
		return Outcome{Next: TargetNone, Covered: covered, Crash: wd.CrashSite}
	}
	return Outcome{Next: wd.Target, Covered: covered, Crash: -1}
}
