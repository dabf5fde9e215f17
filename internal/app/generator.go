package app

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"taopt/internal/sim"
)

// Spec parameterises the synthetic app generator. The defaults produced by
// DefaultSpec generate mid-sized apps; internal/apps calibrates one Spec per
// evaluation app to match the relative sizes of Table 3/Table 4.
type Spec struct {
	Name     string
	Version  string
	Category string
	// Downloads is the Table 3 "#Inst" column (informational).
	Downloads string
	// Seed drives all structural randomness; the same Spec always generates
	// the identical app.
	Seed int64

	// Subspaces is the number of loosely coupled functionalities, excluding
	// the hub.
	Subspaces int
	// ScreensMin/Max bound the number of screens per functionality.
	ScreensMin, ScreensMax int
	// WidgetsMin/Max bound the number of interactive widgets per screen.
	WidgetsMin, WidgetsMax int
	// ActivitiesMin/Max bound how many Android activities implement one
	// functionality. Functionalities spanning several activities — and
	// activities shared across functionalities — are what break
	// activity-granularity parallelization (Section 2, Section 3.3).
	ActivitiesMin, ActivitiesMax int
	// SharedActivityProb is the chance that a functionality reuses a
	// globally shared activity (e.g. a Settings screen) for one of its
	// screens.
	SharedActivityProb float64
	// CrossProb is the probability that an internal widget targets a screen
	// of a different functionality directly (not through the hub). This is
	// the "global sparsity" knob: cross edges are rare but nonzero.
	CrossProb float64
	// ExitProb is the probability that a non-entry screen carries an
	// explicit widget back to the hub (Back navigation exists regardless).
	ExitProb float64
	// LayerWidth shapes each functionality as a layered flow of this width:
	// screens mostly link forward one layer, sideways, or back. Depth is what
	// makes coverage hard to saturate — a random walk needs many actions to
	// reach the deep layers, exactly like multi-step flows (search → detail
	// → cart → checkout) in real apps.
	LayerWidth int

	// VisitMethodsMin/Max bound methods covered on each screen render.
	VisitMethodsMin, VisitMethodsMax int
	// WidgetMethodsMin/Max bound methods covered per interaction.
	WidgetMethodsMin, WidgetMethodsMax int
	// ExtraMethods are methods in the binary never reachable from the UI
	// (dead code, server-driven paths); they keep coverage below 100%.
	ExtraMethods int

	// CrashSites is the number of planted faults.
	CrashSites int
	// CrashProbMin/Max bound each site's trigger probability.
	CrashProbMin, CrashProbMax float64

	// LoginRequired gates the main functionality behind a login screen; the
	// harness runs an auto-login script once per instance, as in the paper.
	LoginRequired bool
	// VolatileTextProb is the chance a widget renders changing text.
	VolatileTextProb float64
	// DecorationsMax bounds non-clickable structure rows per screen.
	DecorationsMax int
}

// DefaultSpec returns a reasonable mid-size app spec with the given name and
// seed. Callers override fields before Generate.
func DefaultSpec(name string, seed int64) Spec {
	return Spec{
		Name:               name,
		Version:            "1.0.0",
		Category:           "Tools",
		Downloads:          "10m+",
		Seed:               seed,
		Subspaces:          8,
		ScreensMin:         8,
		ScreensMax:         14,
		WidgetsMin:         5,
		WidgetsMax:         9,
		ActivitiesMin:      2,
		ActivitiesMax:      4,
		SharedActivityProb: 0.5,
		CrossProb:          0.005,
		ExitProb:           0.02,
		LayerWidth:         3,
		VisitMethodsMin:    60,
		VisitMethodsMax:    180,
		WidgetMethodsMin:   6,
		WidgetMethodsMax:   24,
		ExtraMethods:       2500,
		CrashSites:         6,
		CrashProbMin:       0.12,
		CrashProbMax:       0.30,
		VolatileTextProb:   0.3,
		DecorationsMax:     5,
	}
}

func (s Spec) withDefaults() Spec {
	d := DefaultSpec(s.Name, s.Seed)
	s.Subspaces = cmp.Or(s.Subspaces, d.Subspaces)
	s.ScreensMin = cmp.Or(s.ScreensMin, d.ScreensMin)
	s.ScreensMax = cmp.Or(s.ScreensMax, d.ScreensMax)
	s.WidgetsMin = cmp.Or(s.WidgetsMin, d.WidgetsMin)
	s.WidgetsMax = cmp.Or(s.WidgetsMax, d.WidgetsMax)
	s.ActivitiesMin = cmp.Or(s.ActivitiesMin, d.ActivitiesMin)
	s.ActivitiesMax = cmp.Or(s.ActivitiesMax, d.ActivitiesMax)
	s.SharedActivityProb = cmp.Or(s.SharedActivityProb, d.SharedActivityProb)
	s.CrossProb = cmp.Or(s.CrossProb, d.CrossProb)
	s.ExitProb = cmp.Or(s.ExitProb, d.ExitProb)
	s.LayerWidth = cmp.Or(s.LayerWidth, d.LayerWidth)
	s.VisitMethodsMin = cmp.Or(s.VisitMethodsMin, d.VisitMethodsMin)
	s.VisitMethodsMax = cmp.Or(s.VisitMethodsMax, d.VisitMethodsMax)
	s.WidgetMethodsMin = cmp.Or(s.WidgetMethodsMin, d.WidgetMethodsMin)
	s.WidgetMethodsMax = cmp.Or(s.WidgetMethodsMax, d.WidgetMethodsMax)
	s.ExtraMethods = cmp.Or(s.ExtraMethods, d.ExtraMethods)
	s.CrashSites = cmp.Or(s.CrashSites, d.CrashSites)
	s.CrashProbMin = cmp.Or(s.CrashProbMin, d.CrashProbMin)
	s.CrashProbMax = cmp.Or(s.CrashProbMax, d.CrashProbMax)
	s.VolatileTextProb = cmp.Or(s.VolatileTextProb, d.VolatileTextProb)
	s.DecorationsMax = cmp.Or(s.DecorationsMax, d.DecorationsMax)
	s.Version = cmp.Or(s.Version, d.Version)
	s.Category = cmp.Or(s.Category, d.Category)
	s.Downloads = cmp.Or(s.Downloads, d.Downloads)
	return s
}

// Names for generated functionalities, cycled if a spec asks for more.
var subspaceNames = []string{
	"Browse", "Search", "Detail", "Account", "Settings", "Social",
	"Media", "History", "Checkout", "Library", "Discover", "Messages",
	"Offers", "Reviews", "Downloads", "Profile", "Help", "Premium",
}

var widgetClasses = []string{
	"android.widget.Button",
	"android.widget.ImageButton",
	"android.widget.TextView",
	"androidx.cardview.widget.CardView",
	"android.widget.ImageView",
}

// builder carries generation state. An app is allocated in bulk, not per
// widget: its screens share one []ScreenState, widgets and method lists are
// capacity-clipped runs of shared slabs, and its strings are substrings of
// shared text buffers.
type builder struct {
	spec    Spec
	rng     *sim.RNG
	app     *App
	pkg     string
	nextRes int

	widgets []Widget
	methods []MethodID
	text    text
}

// Slab sizes: each slab holds this many elements (more if one request needs
// it), so a generated app costs a handful of allocations per kind.
const (
	widgetChunk = 256
	methodChunk = 4096
	textChunk   = 8 << 10
)

// carve returns the next n elements of *slab as a capacity-clipped
// subslice, so appending to it can never write into a neighbour. A full
// slab is replaced by a fresh one of at least chunk elements.
func carve[T any](slab *[]T, n, chunk int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, chunk))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// text hands out strings that share large backing buffers. A
// strings.Builder never rewrites bytes it has written, so substrings of its
// String stay valid as it grows.
type text struct{ sb strings.Builder }

// join returns the concatenation of parts.
func (t *text) join(parts ...string) string { return t.build(parts, nil) }

// num returns the concatenation of parts followed by n in decimal.
func (t *text) num(n int, parts ...string) string {
	var digits [20]byte
	return t.build(parts, strconv.AppendInt(digits[:0], int64(n), 10))
}

func (t *text) build(parts []string, tail []byte) string {
	n := len(tail)
	for _, p := range parts {
		n += len(p)
	}
	if t.sb.Cap()-t.sb.Len() < n {
		t.sb = strings.Builder{}
		t.sb.Grow(max(n, textChunk))
	}
	lo := t.sb.Len()
	for _, p := range parts {
		t.sb.WriteString(p)
	}
	t.sb.Write(tail)
	return t.sb.String()[lo:]
}

// Generate builds the app described by spec. The result is deterministic in
// spec (including Seed) and always passes Validate.
func Generate(spec Spec) *App {
	spec = spec.withDefaults()
	b := &builder{
		spec: spec,
		rng:  sim.NewRNG(spec.Seed),
	}
	b.pkg = b.text.join("com.", sanitize(spec.Name))
	b.app = &App{
		Name:      spec.Name,
		Version:   spec.Version,
		Subspaces: spec.Subspaces + 1, // + hub
	}
	b.build()
	if err := b.app.Validate(); err != nil {
		// Generation bugs are programmer errors, not runtime conditions.
		panic(fmt.Sprintf("app: generator produced invalid app: %v", err))
	}
	return b.app
}

func sanitize(name string) string {
	var out strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			out.WriteRune(r)
		}
	}
	if out.Len() == 0 {
		return "app"
	}
	return out.String()
}

func (b *builder) build() {
	a, spec, rng := b.app, b.spec, b.rng

	// Plan functionality sizes and activities.
	sizes := make([]int, spec.Subspaces)
	total := 1
	for i := range sizes {
		sizes[i] = spec.ScreensMin + rng.Intn(spec.ScreensMax-spec.ScreensMin+1)
		total += sizes[i]
	}
	sharedActivity := b.text.join(b.pkg, ".SharedSettingsActivity")
	hubActivity := b.text.join(b.pkg, ".MainTabsActivity")

	// Allocate screens: hub first, then one block per functionality, then
	// the optional login screen.
	hubTitles := []string{"MainTabs"}
	if rng.Bool(0.6) {
		hubTitles = append(hubTitles, "GlobalSearch")
		total++
	}
	if spec.LoginRequired {
		total++
	}
	states := make([]ScreenState, total)
	a.Screens = make([]*ScreenState, total)
	for i := range states {
		states[i].ID = ScreenID(i)
		a.Screens[i] = &states[i]
	}
	// blocks[k] lists the screens of subspace k (0 = hub) as a run of ids.
	ids := make([]int, total)
	for i := range ids {
		ids[i] = i
	}
	entry := make([]int, spec.Subspaces+1) // entry[k] = screen index of subspace k's entry (entry[0] unused)
	blocks := make([][]int, spec.Subspaces+1)
	blocks[0] = ids[:len(hubTitles)]
	for i, title := range hubTitles {
		states[i].Activity, states[i].Title = hubActivity, title
	}
	next := len(hubTitles)
	acts := make([]string, 0, spec.ActivitiesMax)
	for k := 1; k <= spec.Subspaces; k++ {
		name := subspaceNames[(k-1)%len(subspaceNames)]
		if k-1 >= len(subspaceNames) {
			name = b.text.num((k-1)/len(subspaceNames)+1, name)
		}
		nAct := spec.ActivitiesMin + rng.Intn(spec.ActivitiesMax-spec.ActivitiesMin+1)
		acts = acts[:0]
		for j := 0; j < nAct; j++ {
			acts = append(acts, b.text.join(b.pkg, ".", name, activitySuffix(j), "Activity"))
		}
		// Shared activities defeat activity partitioning: occasionally one
		// of this functionality's activities is the global shared one, or
		// even the hub's.
		if rng.Bool(spec.SharedActivityProb) {
			if rng.Bool(0.5) {
				acts[nAct-1] = sharedActivity
			} else {
				acts[nAct-1] = hubActivity
			}
		}
		entry[k] = next
		blocks[k] = ids[next : next+sizes[k-1]]
		for s := 0; s < sizes[k-1]; s++ {
			// Entry screens live on the functionality's first activity;
			// deeper screens spread across the rest.
			act := acts[0]
			if s > 0 {
				act = acts[rng.Intn(len(acts))]
			}
			st := &states[next]
			st.Subspace, st.Activity, st.Title = k, act, b.screenTitle(name, s)
			next++
		}
	}

	loginIdx := -1
	if spec.LoginRequired {
		loginIdx = next
		states[loginIdx].Activity = b.text.join(b.pkg, ".LoginActivity")
		states[loginIdx].Title = "Login"
	}

	for i := range states {
		states[i].Decorations = rng.Intn(spec.DecorationsMax + 1)
	}
	a.Main = 0
	if loginIdx >= 0 {
		a.Login = ScreenID(loginIdx)
		a.LoginRequired = true
	} else {
		a.Login = -1
	}

	// Method universe. Screen visit methods first, then widget methods are
	// appended as widgets are wired, then the unreachable tail.
	//
	// The hub's visit methods model app startup/framework code that every
	// instance covers immediately — the root cause of the high baseline
	// Jaccard overlap in Section 3.2. Within a functionality, deeper screens
	// carry more methods: multi-step flows implement the bulk of a feature's
	// code, so coverage depends on sustained exploration, not on touching
	// the entry screen.
	for bi, idx := range blocks[0] {
		sc := a.Screens[idx]
		n := spec.VisitMethodsMin + rng.Intn(spec.VisitMethodsMax-spec.VisitMethodsMin+1)
		if bi == 0 {
			n = n*3 + spec.VisitMethodsMax
		}
		sc.VisitMethods = b.newMethods(n)
	}
	for k := 1; k <= spec.Subspaces; k++ {
		for pos, idx := range blocks[k] {
			sc := a.Screens[idx]
			n := spec.VisitMethodsMin + rng.Intn(spec.VisitMethodsMax-spec.VisitMethodsMin+1)
			depth := float64(pos) / float64(len(blocks[k]))
			n = int(float64(n) * (1 + 1.5*depth))
			sc.VisitMethods = b.newMethods(n)
		}
	}
	if spec.LoginRequired {
		sc := a.Screens[loginIdx]
		sc.VisitMethods = b.newMethods(spec.VisitMethodsMin)
	}

	// Crash sites are planted after wiring (see plantCrashes).
	a.CrashSites = make([]CrashSite, spec.CrashSites)

	// Wire widgets.
	b.wireHub(blocks, entry)
	for k := 1; k <= spec.Subspaces; k++ {
		b.wireSubspace(k, blocks, entry)
	}
	if loginIdx >= 0 {
		b.wireLogin(ScreenID(loginIdx))
	}
	b.plantCrashes(blocks)

	// Unreachable tail.
	a.NumMethods += spec.ExtraMethods
}

func activitySuffix(j int) string {
	suffixes := []string{"", "Detail", "List", "Edit", "Page"}
	return suffixes[j%len(suffixes)]
}

var screenTitles = []string{"Home", "List", "Detail", "Options", "Compose", "Results", "Filter", "Preview", "More", "Archive"}

// screenTitle names the s'th screen of the functionality called name.
func (b *builder) screenTitle(name string, s int) string {
	if s < len(screenTitles) {
		return b.text.join(name, " ", screenTitles[s])
	}
	return b.text.num(s, name, " Page ")
}

// newMethods adds n fresh methods to the universe and returns their IDs.
func (b *builder) newMethods(n int) []MethodID {
	ids := carve(&b.methods, n, methodChunk)
	for i := range ids {
		ids[i] = MethodID(b.app.NumMethods + i)
	}
	b.app.NumMethods += n
	return ids
}

// reserve gives screen room for exactly n widgets, which newWidget then
// appends in place.
func (b *builder) reserve(screen *ScreenState, n int) {
	screen.Widgets = carve(&b.widgets, n, widgetChunk)[:0]
}

func (b *builder) newWidget(screen *ScreenState, label string, target ScreenID) {
	rng, spec := b.rng, b.spec
	n := spec.WidgetMethodsMin + rng.Intn(spec.WidgetMethodsMax-spec.WidgetMethodsMin+1)
	b.nextRes++
	screen.Widgets = append(screen.Widgets, Widget{
		Class:      widgetClasses[rng.Intn(len(widgetClasses))],
		ResourceID: b.text.num(b.nextRes, "w_"),
		Label:      label,
		Target:     target,
		Methods:    b.newMethods(n),
		CrashSite:  -1,
		Volatile:   rng.Bool(spec.VolatileTextProb),
	})
}

// wireHub gives the main screen one tab per functionality plus filler.
func (b *builder) wireHub(blocks [][]int, entry []int) {
	a, rng := b.app, b.rng
	main := a.Screens[0]
	const banners = 2
	b.reserve(main, len(entry)-1+banners)
	for k := 1; k < len(entry); k++ {
		b.newWidget(main, b.text.join("Tab ", a.Screens[entry[k]].Title), ScreenID(entry[k]))
	}
	// A couple of non-navigating widgets (refresh, promo banner).
	for i := 0; i < banners; i++ {
		b.newWidget(main, b.text.num(i, "Banner "), TargetNone)
	}
	// Other hub screens link back to main and to a random functionality.
	for _, idx := range blocks[0][1:] {
		s := a.Screens[idx]
		b.reserve(s, 3)
		b.newWidget(s, "Home", 0)
		k := 1 + rng.Intn(len(entry)-1)
		b.newWidget(s, "Open", ScreenID(entry[k]))
		b.newWidget(s, "Dismiss", TargetBack)
	}
}

// wireSubspace connects the screens of functionality k as a layered flow:
// locally dense (every screen reaches neighbours in its own and adjacent
// layers) yet deep (reaching the last layer needs a sustained multi-step
// walk). Cross edges to other functionalities are rare (global sparsity).
func (b *builder) wireSubspace(k int, blocks [][]int, entry []int) {
	a, spec, rng := b.app, b.spec, b.rng
	screens := blocks[k]
	width := spec.LayerWidth
	layers := (len(screens) + width - 1) / width
	layerOf := func(pos int) int { return pos / width }
	pickInLayer := func(l int) int {
		lo := l * width
		hi := lo + width
		if hi > len(screens) {
			hi = len(screens)
		}
		if lo >= hi {
			lo, hi = len(screens)-1, len(screens)
		}
		return screens[lo+rng.Intn(hi-lo)]
	}

	for pos, idx := range screens {
		s := a.Screens[idx]
		l := layerOf(pos)
		nw := spec.WidgetsMin + rng.Intn(spec.WidgetsMax-spec.WidgetsMin+1)
		b.reserve(s, nw)
		for w := 0; w < nw; w++ {
			switch {
			case pos == 0 && w == 0:
				// The entry screen always offers a way home: this is the
				// edge TaOPT ends up blocking on other instances.
				b.newWidget(s, "Back to Home", 0)
			case rng.Bool(spec.CrossProb) && len(entry) > 2:
				// Rare direct jump into another functionality.
				other := k
				for other == k {
					other = 1 + rng.Intn(len(entry)-1)
				}
				tscreens := blocks[other]
				b.newWidget(s, "See also", ScreenID(tscreens[rng.Intn(len(tscreens))]))
			case pos != 0 && w == 0 && rng.Bool(spec.ExitProb):
				b.newWidget(s, "Home", 0)
			case w <= 1 && l+1 < layers:
				// Forward edge into the next layer: the flow's spine.
				t := pickInLayer(l + 1)
				b.newWidget(s, b.text.join("Open ", a.Screens[t].Title), ScreenID(t))
			case w == 2 && l > 0 && rng.Bool(0.6):
				// Back toward shallower layers, like list ↔ detail loops.
				t := pickInLayer(rng.Intn(l))
				b.newWidget(s, b.text.join("Back to ", a.Screens[t].Title), ScreenID(t))
			case rng.Bool(0.22):
				// Non-navigating interaction (toggle, like, play).
				b.newWidget(s, "Toggle", TargetNone)
			case rng.Bool(0.12):
				b.newWidget(s, "Close", TargetBack)
			default:
				// Sideways within the layer (tabs, sibling items).
				t := pickInLayer(l)
				b.newWidget(s, b.text.join("Open ", a.Screens[t].Title), ScreenID(t))
			}
		}
	}
}

// wireLogin builds a login wall. Without the auto-login script a random tool
// cannot pass it: the form widgets never navigate to Main.
func (b *builder) wireLogin(id ScreenID) {
	s := b.app.Screens[id]
	b.reserve(s, 4)
	b.newWidget(s, "Username", TargetNone)
	b.newWidget(s, "Password", TargetNone)
	b.newWidget(s, "Sign In", TargetNone) // fails: no credentials
	b.newWidget(s, "Forgot password", TargetNone)
}

// plantCrashes attaches crash sites to widgets across the functionalities.
// Two kinds, matching where each parallelization setting's strength lies:
//
//   - one third are shallow, rare-trigger sites (early screens, ~2–4% per
//     fire): the heavy repetition an uncoordinated run pours into popular
//     screens is what finds these;
//   - two thirds sit in the deep flow tail (past ~55% of the functionality's
//     depth) with ordinary trigger rates (CrashProbMin/Max): casual
//     exploration never gets there at all — measured baseline visit mass in
//     the last three depth deciles is ≈0 — so finding them requires the
//     sustained single-functionality exploration that dedicated subspaces
//     produce.
func (b *builder) plantCrashes(blocks [][]int) {
	a, spec, rng := b.app, b.spec, b.rng
	for c := 0; c < spec.CrashSites; c++ {
		k := 1 + rng.Intn(len(blocks)-1)
		screens := blocks[k]
		var pos int
		var prob float64
		if c%4 == 0 {
			// A minority of shallow, rare-trigger sites: heavy repetition on
			// popular screens finds these, whoever does the repeating.
			pos = 1 + rng.Intn(max(1, len(screens)/6))
			prob = 0.05 + rng.Float64()*0.05
		} else {
			// The rest live past the casual-exploration horizon. Measured
			// baseline visit mass beyond ~65% of a functionality's depth is
			// essentially zero (the random walk resets to the entry screen
			// on every re-entry), while a dedicated instance pushes its
			// whole budget into one flow and dwells there — so these sites
			// trigger readily (0.6–0.9 per fire) once anyone arrives at all.
			lo := len(screens) * 65 / 100
			hi := len(screens) * 92 / 100
			if hi <= lo {
				hi = lo + 1
			}
			pos = lo + rng.Intn(hi-lo)
			prob = 0.6 + rng.Float64()*0.3
		}
		if pos >= len(screens) {
			pos = len(screens) - 1
		}
		idx := screens[pos]
		s := a.Screens[idx]
		if len(s.Widgets) == 0 {
			continue
		}
		w := &s.Widgets[rng.Intn(len(s.Widgets))]
		if w.CrashSite >= 0 {
			continue // already a crash site; keep the count approximate
		}
		w.CrashSite = c
		w.CrashProb = prob
		var frames []string
		short := s.Activity[strings.LastIndexByte(s.Activity, '.')+1:]
		depth := 3 + rng.Intn(3)
		for f := 0; f < depth; f++ {
			// Handler frames name the method pkg.<Activity>.onClick_<id>.
			var m string
			if f < len(w.Methods) {
				m = fmt.Sprintf("%s.%s.onClick_%d", b.pkg, short, w.Methods[f])
			} else {
				m = fmt.Sprintf("%s.runtime.Dispatch.call_%d", b.pkg, f)
			}
			frames = append(frames, fmt.Sprintf("%s(%s.java:%d)", m, short, 40+rng.Intn(400)))
		}
		a.CrashSites[c] = CrashSite{ID: c, Frames: frames}
	}
	// Fill any skipped sites with distinct synthetic frames so CrashSites
	// stays dense and Validate holds.
	for c := range a.CrashSites {
		if len(a.CrashSites[c].Frames) == 0 {
			a.CrashSites[c] = CrashSite{ID: c, Frames: []string{
				fmt.Sprintf("%s.runtime.Watchdog.timeout_%d(Watchdog.java:%d)", b.pkg, c, 10+c),
			}}
		}
	}
}
