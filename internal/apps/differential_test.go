package apps

import (
	"bytes"
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/scenario"
)

// legacySpec reconstructs one row of the hard-coded table the embedded
// scenario files were generated from. It is retained verbatim so the
// differential test below can prove the scenario-compiled catalog is
// byte-identical to the pre-refactor one: same specs, same seeds, same
// generated apps, same golden exports.
func legacySpec(name, version, category, downloads string, login bool,
	k, scrMin, scrMax, vmMin, vmMax, wmMin, wmMax, extra, crashes int) scenario.App {
	s := app.DefaultSpec(name, app.SeedFor(name))
	s.Version = version
	s.Category = category
	s.Downloads = downloads
	s.Subspaces = k
	s.ScreensMin, s.ScreensMax = scrMin, scrMax
	s.VisitMethodsMin, s.VisitMethodsMax = vmMin, vmMax
	s.WidgetMethodsMin, s.WidgetMethodsMax = wmMin, wmMax
	s.ExtraMethods = extra
	s.CrashSites = crashes
	s.LoginRequired = login
	return scenario.App{Spec: s}
}

// legacyCatalog is the pre-refactor table, in its original (alphabetical)
// order.
func legacyCatalog() []scenario.App {
	return []scenario.App{
		legacySpec("AbsWorkout", "4.2.0", "Health & Fitness", "10m+", false, 6, 75, 110, 4, 10, 2, 5, 1200, 16),
		legacySpec("AccuWeather", "7.4.1-5", "Weather", "100m+", false, 8, 87, 130, 6, 13, 4, 7, 2500, 12),
		legacySpec("AutoScout24", "9.8.6", "Auto & Vehicles", "10m+", false, 10, 97, 152, 8, 16, 5, 9, 4000, 10),
		legacySpec("Duolingo", "3.75.1", "Education", "100m+", false, 7, 87, 120, 6, 12, 3, 7, 2200, 12),
		legacySpec("Filters For Selfie", "1.0.0", "Beauty", "10m+", false, 4, 42, 65, 3, 6, 2, 3, 400, 10),
		legacySpec("GoodRx", "5.3.6", "Medical", "10m+", false, 7, 82, 120, 6, 12, 4, 7, 2200, 14),
		legacySpec("Google Chrome", "65.0.3325", "Communication", "10b+", false, 6, 75, 110, 5, 10, 2, 5, 1500, 10),
		legacySpec("Google Translate", "6.5.0", "Books & Reference", "1b+", false, 6, 75, 110, 5, 11, 2, 5, 1500, 16),
		legacySpec("Marvel Comics", "3.10.3", "Comics", "10m+", false, 5, 65, 87, 4, 8, 2, 4, 800, 14),
		legacySpec("Merriam-Webster", "4.1.2", "Books & Reference", "10m+", false, 5, 65, 97, 4, 9, 2, 5, 1000, 14),
		legacySpec("Ms Word", "16.0.15", "Personal", "1b+", false, 7, 75, 120, 5, 11, 3, 6, 1800, 10),
		legacySpec("Quizlet", "6.6.2", "Education", "10m+", true, 11, 97, 165, 9, 17, 5, 10, 5000, 12),
		legacySpec("Sketch", "8.0.A.0.2", "Art & Design", "50m+", false, 5, 65, 97, 4, 9, 2, 4, 1000, 10),
		legacySpec("TripAdvisor", "25.6.1", "Food & Drink", "100m+", true, 9, 97, 142, 7, 14, 4, 8, 3500, 16),
		legacySpec("Trivago", "4.9.4", "Travel & Local", "50m+", false, 9, 97, 142, 7, 14, 4, 8, 3500, 12),
		legacySpec("UC Browser", "13.0.0.1288", "Communication", "1b+", false, 8, 87, 130, 6, 13, 4, 7, 2500, 12),
		legacySpec("WEBTOON", "2.4.3", "Comics", "100m+", true, 8, 87, 142, 6, 14, 4, 8, 2800, 14),
		legacySpec("Zedge", "7.34.4", "Personalization", "100m+", false, 12, 130, 197, 10, 20, 5, 11, 6000, 16),
	}
}

// TestCatalogMatchesLegacyTable is the catalog-wide differential: every
// embedded scenario file must compile to exactly the app the hard-coded
// table produced — field for field, including the derived seed — so every
// downstream golden (exports, fleet reports, decision logs) is unchanged by
// the data-file refactor.
func TestCatalogMatchesLegacyTable(t *testing.T) {
	want := legacyCatalog()
	got := Entries()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Spec != w.Spec {
			t.Errorf("%s: compiled spec differs from legacy table:\n got %+v\nwant %+v", w.Spec.Name, g.Spec, w.Spec)
		}
		if g.Hash == "" {
			t.Errorf("%s: entry carries no scenario hash", w.Spec.Name)
		}
	}
}

// TestCatalogHashesDistinct pins that each entry's scenario hash identifies
// its document: 18 files, 18 distinct hashes, stable across loads.
// TestCatalogFilesAreEmitFixedPoints requires every embedded scenario file
// to be exactly what EmitApp writes for the app it compiles to: app.Spec's
// json tags own the catalog files' key names and key order.
func TestCatalogFilesAreEmitFixedPoints(t *testing.T) {
	files, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := scenarioFS.ReadFile("scenarios/" + f.Name())
		if err != nil {
			t.Fatal(err)
		}
		a, err := scenario.CompileApp(data)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		out, err := scenario.EmitApp(a)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s: emitted document differs from the file:\n%s", f.Name(), out)
		}
	}
}

func TestCatalogHashesDistinct(t *testing.T) {
	seen := make(map[string]string)
	for _, e := range Entries() {
		if prev, dup := seen[e.Hash]; dup {
			t.Fatalf("hash collision between %s and %s", prev, e.Spec.Name)
		}
		seen[e.Hash] = e.Spec.Name
		if l, err := Lookup(e.Spec.Name); err != nil || l != e {
			t.Fatalf("Lookup(%q) = %+v, %v; disagrees with the entry", e.Spec.Name, l, err)
		}
	}
}

func TestLoadUnknownListsAvailable(t *testing.T) {
	_, err := Load("NopeApp")
	if err == nil {
		t.Fatal("unknown app must error")
	}
	for _, name := range []string{"AbsWorkout", "Zedge"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list available app %q", err, name)
		}
	}
}
