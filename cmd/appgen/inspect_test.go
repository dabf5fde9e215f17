package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
)

var updateInspectGolden = flag.Bool("update", false, "rewrite the inspect goldens")

// TestInspectGolden pins appgen's inspection report for the motivating
// example and two catalog apps: structure, crash-site depths and the GS-LD
// conductance line.
// Regenerate with: go test ./cmd/appgen -run InspectGolden -update
func TestInspectGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		app    func() *app.App
	}{
		{"inspect-demo.txt", app.MotivatingExample},
		{"inspect-filters-for-selfie.txt", func() *app.App { return apps.MustLoad("Filters For Selfie") }},
		{"inspect-zedge.txt", func() *app.App { return apps.MustLoad("Zedge") }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var sb strings.Builder
			inspect(&sb, tc.app())
			got := sb.String()
			path := filepath.Join("testdata", tc.golden)
			if *updateInspectGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("inspect output diverges from %s (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

// TestCatalogGSLD holds every catalog app to the globally-sparse half of
// GS-LD that Theorem 1 needs: on the ground-truth graph no functionality
// leaks more than 1% of its transition mass into another (measured
// maximum 0.0017–0.0057), over every ordered pair of the k non-hub
// functionalities.
func TestCatalogGSLD(t *testing.T) {
	for _, e := range apps.Entries() {
		a := apps.MustLoad(e.Spec.Name)
		c := gsld(a)
		k := a.Subspaces - 1
		if c.Pairs != k*(k-1) {
			t.Errorf("%s: %d ordered pairs, want %d for %d functionalities", a.Name, c.Pairs, k*(k-1), k)
		}
		if c.Max > 0.01 || c.Mean > c.Max {
			t.Errorf("%s: cross-functionality conductance mean %.4f, max %.4f; want max ≤ 0.01", a.Name, c.Mean, c.Max)
		}
		t.Logf("%-20s k=%-2d mean %.4f max %.4f", a.Name, k, c.Mean, c.Max)
	}
}
