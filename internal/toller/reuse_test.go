package toller

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// treePaths calls fn with every node of the tree under n, in pre-order, and
// the node's WidgetPath: class#resource@child.indexes from the root, where
// at holds n's own indexes.
func treePaths(n *ui.Node, at []int, fn func(ui.WidgetPath, *ui.Node)) {
	idx := make([]string, len(at))
	for i, x := range at {
		idx[i] = strconv.Itoa(x)
	}
	fn(ui.WidgetPath(n.Class+"#"+n.ResourceID+"@"+strings.Join(idx, ".")), n)
	for i, ch := range n.Children {
		treePaths(ch, append(at[:len(at):len(at)], i), fn)
	}
}

// treeView is View computed the way the driver did when it built a tree on
// every step: a fresh render of the emulator's current screen, hashed for
// the signature; every node on a blocked path disabled; then a tap on each
// enabled clickable child of the container, and Back.
func treeView(d *Driver) View {
	screen := d.Emulator().Render()
	sig := screen.Abstract()
	blocked := d.Blocks().BlockedWidgets(sig)
	paths := make(map[*ui.Node]ui.WidgetPath)
	treePaths(screen.Root, nil, func(p ui.WidgetPath, n *ui.Node) {
		paths[n] = p
		if blocked[p] {
			n.Enabled = false
		}
	})
	var acts []device.Action
	for i, n := range screen.Root.Children[1].Children {
		if n.Clickable && n.Enabled {
			acts = append(acts, device.Action{Kind: trace.ActionTap, Widget: i, Path: paths[n]})
		}
	}
	acts = append(acts, device.Action{Kind: trace.ActionBack, Widget: -1})
	return View{Activity: screen.Activity, Sig: sig, Actions: acts}
}

// TestViewMatchesTreeOracle drives seeded random sessions that mix tool
// actions with everything else that can move the instance or change what it
// may do between a Perform and the next View: entrypoint blocks, member
// blocks that steer the instance back, activity restrictions that end in a
// relaunch, crashes, lifted blocks, and relaunches and logins from outside
// the driver. Every View must equal treeView, and the book must hold a
// render of every signature a View or an event names.
func TestViewMatchesTreeOracle(t *testing.T) {
	for _, name := range []string{"Filters For Selfie", "Quizlet"} {
		for seed := int64(1); seed <= 4; seed++ {
			a := apps.MustLoad(name)
			rng := sim.NewRNG(seed)
			// Make crashes common: a widget in twenty fires a crash site
			// half the time.
			for _, s := range a.Screens {
				for i := range s.Widgets {
					if rng.Bool(0.05) {
						s.Widgets[i].CrashSite, s.Widgets[i].CrashProb = rng.Intn(len(a.CrashSites)), 0.5
					}
				}
			}
			book := trace.NewBook()
			d := NewDriver(device.NewEmulator(0, a, rng.Fork(1)), book, 0)
			inBook := func(step int, sig ui.Signature) {
				if s := book.Lookup(sig); s == nil || s.Abstract() != sig {
					t.Fatalf("%s seed %d step %d: the book holds no render of %v", name, seed, step, sig)
				}
			}
			now := sim.Duration(0)
			// last is the latest View. Its Actions are the emulator's
			// buffer, so it is only read before the next View call, and
			// every comparison is of a View fresh from that call.
			var last View
			view := func(step int) View {
				want := treeView(d)
				v := d.View()
				if !reflect.DeepEqual(v, want) {
					t.Fatalf("%s seed %d step %d: View differs from the tree oracle\n got %+v\nwant %+v", name, seed, step, v, want)
				}
				inBook(step, v.Sig)
				last = v
				return v
			}
			view(0)
			blocked := 0
			for step := 1; step <= 1500; step++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					v := view(step)
					blocked += len(d.Blocks().BlockedWidgets(v.Sig))
					res := d.Perform(v.Actions[rng.Intn(len(v.Actions))], now)
					now += res.Latency
				case r < 0.65:
					view(step)
				case r < 0.75:
					for _, act := range last.Actions {
						if act.Kind == trace.ActionTap && rng.Bool(0.5) {
							d.Blocks().BlockWidget(last.Sig, act.Path)
						}
					}
				case r < 0.82:
					sigs := book.Signatures()
					d.Blocks().BlockMember(sigs[rng.Intn(len(sigs))])
				case r < 0.85:
					acts := a.Activities()
					d.Blocks().RestrictActivities(acts[:1+rng.Intn(len(acts))])
				case r < 0.90:
					*d.Blocks() = *NewBlockSet()
				case r < 0.95:
					d.Emulator().Relaunch()
				default:
					d.Emulator().AutoLogin()
				}
			}
			var crashes, steered int
			for i, ev := range d.Trace().Events() {
				inBook(i, ev.To)
				if ev.Crashed {
					crashes++
				}
				if ev.Enforced {
					steered++
				}
			}
			if crashes == 0 || steered == 0 || blocked == 0 {
				t.Fatalf("%s seed %d: session had %d crashes, %d steering steps and %d blocked widgets in views; all must occur",
					name, seed, crashes, steered, blocked)
			}
		}
	}
}

// TestWidgetPathsMatchRenderedTree checks the paths Actions hands out
// without walking the tree: each equals the rendered widget's path, for
// every widget of every catalog screen.
func TestWidgetPathsMatchRenderedTree(t *testing.T) {
	for _, name := range apps.Names() {
		a := apps.MustLoad(name)
		for _, s := range a.Screens {
			paths := make(map[*ui.Node]ui.WidgetPath)
			root := a.Render(s.ID, 3).Root
			treePaths(root, nil, func(p ui.WidgetPath, n *ui.Node) { paths[n] = p })
			for i, p := range s.WidgetPaths() {
				if want := paths[root.Children[1].Children[i]]; p != want {
					t.Fatalf("%s screen %d widget %d: path %q, rendered tree gives %q", name, s.ID, i, p, want)
				}
			}
		}
	}
}

// TestSignatureIndependentOfVisit is the oracle of the emulator's
// per-screen signature: App.Signature hashes a screen without rendering it,
// and must equal the render's abstraction on every visit, for every catalog
// screen and the motivating example.
func TestSignatureIndependentOfVisit(t *testing.T) {
	auts := []*app.App{app.MotivatingExample()}
	for _, name := range apps.Names() {
		auts = append(auts, apps.MustLoad(name))
	}
	for _, a := range auts {
		for _, s := range a.Screens {
			want := a.Signature(s.ID)
			for _, visit := range []int{0, 1, 2, 37} {
				if got := a.Render(s.ID, visit).Abstract(); got != want {
					t.Fatalf("%s screen %d: visit %d renders to %v, Signature is %v", a.Name, s.ID, visit, got, want)
				}
			}
		}
	}
}

// TestViewStepDoesNotRender pins one View+Perform step between screens the
// book has seen at zero allocations. A tree render alone costs dozens, and
// a fresh action slice per View costs one, so either coming back fails
// this test.
func TestViewStepDoesNotRender(t *testing.T) {
	d, _ := driverFor(threeZone())
	step := func() {
		v := d.View()
		d.Perform(v.Actions[0], 0)
	}
	// Hub -> A, then A -> A2 and back forever: see every screen once.
	for i := 0; i < 4; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("View+Perform on seen screens: %v allocations per step, want 0", n)
	}
}
