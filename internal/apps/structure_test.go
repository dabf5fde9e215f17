package apps

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"taopt/internal/app"
)

var updateStructureGolden = flag.Bool("update", false, "rewrite the catalog structure golden")

const structureGolden = "testdata/structure_golden.txt"

// structureDigest hashes everything a run can observe of a generated app:
// every screen and widget field, the method IDs they cover, the crash
// frames, and the abstract signature of each screen's third render.
func structureDigest(a *app.App) string {
	h := sha256.New()
	for _, s := range a.Screens {
		fmt.Fprintf(h, "screen %d %q %q %d %d\n", s.ID, s.Activity, s.Title, s.Subspace, s.Decorations)
		fmt.Fprintf(h, "visit %v\n", s.VisitMethods)
		for _, w := range s.Widgets {
			fmt.Fprintf(h, "widget %q %q %q %d %d %v %t\n",
				w.Class, w.ResourceID, w.Label, w.Target, w.CrashSite, w.CrashProb, w.Volatile)
			fmt.Fprintf(h, "click %v\n", w.Methods)
		}
		fmt.Fprintf(h, "sig %d\n", uint64(a.Render(s.ID, 3).Abstract()))
	}
	for _, c := range a.CrashSites {
		fmt.Fprintf(h, "crash %d %q\n", c.ID, c.Frames)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCatalogStructureGolden pins the generated structure of every catalog
// app and of MotivatingExample: name, method count and a digest of every
// screen, widget, method ID, crash frame and screen signature. Any change
// to the generator or to Render that a run could observe shows up here,
// independently of the goldens downstream of a simulated run.
func TestCatalogStructureGolden(t *testing.T) {
	var b strings.Builder
	all := []*app.App{app.MotivatingExample()}
	for _, name := range Names() {
		all = append(all, MustLoad(name))
	}
	for _, a := range all {
		fmt.Fprintf(&b, "%s\t%d\t%s\n", a.Name, a.MethodCount(), structureDigest(a))
	}
	got := b.String()
	if *updateStructureGolden {
		if err := os.WriteFile(structureGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(structureGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("generated app structure drifted from %s:\ngot:\n%swant:\n%s", structureGolden, got, want)
	}
}

// TestGenerateSlicesClipped checks that the generator's slab-carved lists
// are capacity-clipped: a list with spare capacity shares its backing array
// with the next list carved, so an append to it would overwrite a neighbour.
func TestGenerateSlicesClipped(t *testing.T) {
	for _, name := range Names() {
		a := MustLoad(name)
		for _, s := range a.Screens {
			if cap(s.Widgets) != len(s.Widgets) || cap(s.VisitMethods) != len(s.VisitMethods) {
				t.Fatalf("%s screen %d: widgets cap %d len %d, visit methods cap %d len %d",
					name, s.ID, cap(s.Widgets), len(s.Widgets), cap(s.VisitMethods), len(s.VisitMethods))
			}
			for i, w := range s.Widgets {
				if cap(w.Methods) != len(w.Methods) {
					t.Fatalf("%s screen %d widget %d: methods cap %d len %d", name, s.ID, i, cap(w.Methods), len(w.Methods))
				}
			}
		}
	}
}
