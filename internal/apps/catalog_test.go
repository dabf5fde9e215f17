package apps

import (
	"testing"

	"taopt/internal/scenario"
)

func TestCatalogHas18Apps(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("catalog has %d apps, want 18 (Table 3)", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted/unique at %d: %v", i, names)
		}
	}
}

func TestCatalogMatchesTable3(t *testing.T) {
	// Spot-check the paper's rows: name, version, login gate.
	want := map[string]struct {
		version string
		login   bool
	}{
		"Zedge":       {"7.34.4", false},
		"Quizlet":     {"6.6.2", true},
		"TripAdvisor": {"25.6.1", true},
		"WEBTOON":     {"2.4.3", true},
		"AbsWorkout":  {"4.2.0", false},
	}
	byName := make(map[string]scenario.App)
	for _, e := range Entries() {
		byName[e.Spec.Name] = e
	}
	logins := 0
	for _, e := range Entries() {
		if e.Spec.LoginRequired {
			logins++
		}
	}
	if logins != 3 {
		t.Fatalf("login-gated apps = %d, want 3 (Table 3 asterisks)", logins)
	}
	for name, w := range want {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("missing app %q", name)
		}
		if e.Spec.Version != w.version || e.Spec.LoginRequired != w.login {
			t.Fatalf("%s: got (%s, %v), want (%s, %v)", name, e.Spec.Version, e.Spec.LoginRequired, w.version, w.login)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, err := Load("Sketch")
	if err != nil {
		t.Fatal(err)
	}
	b := MustLoad("Sketch")
	if a.MethodCount() != b.MethodCount() || len(a.Screens) != len(b.Screens) {
		t.Fatal("Load is not deterministic")
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("NopeApp"); err == nil {
		t.Fatal("unknown app must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad must panic")
		}
	}()
	MustLoad("NopeApp")
}

func TestCatalogSizesOrdered(t *testing.T) {
	// Relative sizes track Table 4: Zedge is the largest universe and
	// Filters For Selfie the smallest.
	sizes := make(map[string]int)
	for _, name := range Names() {
		sizes[name] = MustLoad(name).MethodCount()
	}
	for name, n := range sizes {
		if name != "Zedge" && n >= sizes["Zedge"] {
			t.Fatalf("%s (%d) >= Zedge (%d)", name, n, sizes["Zedge"])
		}
		if name != "Filters For Selfie" && n <= sizes["Filters For Selfie"] {
			t.Fatalf("%s (%d) <= Filters For Selfie (%d)", name, n, sizes["Filters For Selfie"])
		}
	}
}

func TestCatalogAppsValidate(t *testing.T) {
	for _, name := range Names() {
		a := MustLoad(name)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Subspaces < 4 {
			t.Fatalf("%s: only %d functionalities", name, a.Subspaces)
		}
	}
}
