package toller

import (
	"reflect"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// freshView is what View must return: a new render of the emulator's
// current screen with the driver's current blocks applied.
func freshView(d *Driver) (*ui.Screen, ui.Signature) {
	screen := d.Emulator().Render()
	sig := screen.Abstract()
	for path := range d.Blocks().BlockedWidgets(sig) {
		if n := ui.FindPath(screen.Root, path); n != nil {
			n.Enabled = false
		}
	}
	return screen, sig
}

// TestViewReusesRenderOnlyWhenUnchanged drives seeded random sessions that
// mix tool actions with everything else that can move or modify the screen
// between a Perform and the next View: entrypoint blocks, member blocks
// that steer the instance back, activity restrictions that end in a
// relaunch, crashes, lifted blocks, and relaunches and logins from outside
// the driver. Every View must equal a fresh render with the current blocks
// applied, and must never hand out a screen it handed out before.
func TestViewReusesRenderOnlyWhenUnchanged(t *testing.T) {
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
			handedOut := make(map[*ui.Screen]bool)
			now := sim.Duration(0)
			var last View
			view := func(step int) View {
				want, wantSig := freshView(d)
				v := d.View()
				if handedOut[v.Screen] {
					t.Fatalf("%s seed %d step %d: View returned a screen it returned before", name, seed, step)
				}
				handedOut[v.Screen] = true
				if v.Sig != wantSig || !reflect.DeepEqual(v.Screen, want) {
					t.Fatalf("%s seed %d step %d: View differs from a fresh render with blocks applied", name, seed, step)
				}
				if wantActs := d.Emulator().Actions(want); !reflect.DeepEqual(v.Actions, wantActs) {
					t.Fatalf("%s seed %d step %d: View actions differ from the fresh render's", name, seed, step)
				}
				for _, act := range v.Actions {
					if act.Kind != trace.ActionTap {
						continue
					}
					if p, err := ui.PathOf(v.Screen.Root, []int{1, act.Widget}); err != nil || p != act.Path {
						t.Fatalf("%s seed %d step %d: action path %q, PathOf gives %q (%v)", name, seed, step, act.Path, p, err)
					}
				}
				last = v
				return v
			}
			view(0)
			for step := 1; step <= 1500; step++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					v := view(step)
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
			for _, ev := range d.Trace().Events() {
				if ev.Crashed {
					crashes++
				}
				if ev.Enforced {
					steered++
				}
			}
			if crashes == 0 || steered == 0 {
				t.Fatalf("%s seed %d: session had %d crashes and %d steering steps; both must occur", name, seed, crashes, steered)
			}
		}
	}
}

// TestWidgetPathsMatchRenderedTree checks the paths Actions hands out
// without walking the tree: each equals ui.PathOf on the rendered
// hierarchy, for every widget of every catalog screen.
func TestWidgetPathsMatchRenderedTree(t *testing.T) {
	for _, name := range apps.Names() {
		a := apps.MustLoad(name)
		for _, s := range a.Screens {
			root := a.Render(s.ID, 3).Root
			for i, p := range s.WidgetPaths() {
				want, err := ui.PathOf(root, []int{1, i})
				if err != nil || p != want {
					t.Fatalf("%s screen %d widget %d: path %q, PathOf gives %q (%v)", name, s.ID, i, p, want, err)
				}
			}
		}
	}
}
