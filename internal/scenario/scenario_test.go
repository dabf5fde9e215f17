package scenario

import (
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/faults"
	"taopt/internal/sim"
)

func mustCompileApp(t *testing.T, src string) *App {
	t.Helper()
	a, err := CompileApp([]byte(src))
	if err != nil {
		t.Fatalf("CompileApp: %v", err)
	}
	return a
}

func issuePaths(t *testing.T, err error) []string {
	t.Helper()
	inv, ok := err.(*InvalidError)
	if !ok {
		t.Fatalf("want *InvalidError, got %T: %v", err, err)
	}
	paths := make([]string, len(inv.Issues))
	for i, is := range inv.Issues {
		paths[i] = is.Path
	}
	return paths
}

func TestDecodeEnvelopeDefaultsVersion(t *testing.T) {
	doc, err := Decode([]byte(`{"kind": "app", "name": "X", "app": {}}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if doc.SchemaVersion != CurrentVersion {
		t.Fatalf("SchemaVersion = %d, want %d", doc.SchemaVersion, CurrentVersion)
	}
	if doc.Hash == "" {
		t.Fatal("Decode left Hash empty")
	}
}

func TestDecodeReportsAllEnvelopeIssues(t *testing.T) {
	_, err := Decode([]byte(`{"schemaVersion": 0, "kind": "nope", "extra": 1}`))
	paths := issuePaths(t, err)
	want := []string{"$.schemaVersion", "$.kind", "$.name", "$.extra"}
	for _, w := range want {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing issue at %s in %v", w, paths)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	if _, err := Decode([]byte(`{"kind":"app","name":"X","app":{}} {"more": 1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestCompileUnknownVersion(t *testing.T) {
	_, err := Compile([]byte(`{"schemaVersion": 99, "kind": "app", "name": "X", "app": {}}`))
	if err == nil || !strings.Contains(err.Error(), "no compiler registered") {
		t.Fatalf("want unregistered-version error, got %v", err)
	}
	if !strings.Contains(err.Error(), "app/v1") {
		t.Fatalf("error should list registered pairs, got %v", err)
	}
}

func TestCompileAppDefaults(t *testing.T) {
	a := mustCompileApp(t, `{"kind": "app", "name": "Fresh", "app": {}}`)
	want := app.DefaultSpec("Fresh", app.SeedFor("Fresh"))
	if a.Spec != want {
		t.Fatalf("empty payload spec = %+v, want defaults %+v", a.Spec, want)
	}
	if a.Spec.LoginRequired {
		t.Fatal("default app requires login")
	}
}

func TestCompileAppOverrides(t *testing.T) {
	a := mustCompileApp(t, `{"kind": "app", "name": "Big", "app": {
		"version": "2.0", "subspaces": 12, "screensMin": 130, "screensMax": 197,
		"crashProbMin": 0.2, "crashProbMax": 0.4, "login": true, "seed": 77}}`)
	s := a.Spec
	if s.Version != "2.0" || s.Subspaces != 12 || s.ScreensMin != 130 || s.ScreensMax != 197 ||
		s.CrashProbMin != 0.2 || s.CrashProbMax != 0.4 || !s.LoginRequired || s.Seed != 77 {
		t.Fatalf("overrides not applied: %+v", s)
	}
	if !a.Spec.LoginRequired {
		t.Fatal("login gate not set")
	}
	// Untouched knobs keep generator defaults.
	def := app.DefaultSpec("Big", 77)
	if s.WidgetsMin != def.WidgetsMin || s.ExtraMethods != def.ExtraMethods {
		t.Fatalf("defaults perturbed: %+v", s)
	}
}

func TestCompileAppAllErrors(t *testing.T) {
	_, err := CompileApp([]byte(`{"kind": "app", "name": "Bad", "app": {
		"subspaces": 0, "crashProbMin": 1.5, "version": "", "screenMax": 9, "screensMin": "x"}}`))
	paths := issuePaths(t, err)
	want := []string{"$.app.subspaces", "$.app.crashProbMin", "$.app.version", "$.app.screenMax", "$.app.screensMin"}
	for _, w := range want {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing issue at %s in %v", w, paths)
		}
	}
}

func TestCompileAppMinMaxCross(t *testing.T) {
	_, err := CompileApp([]byte(`{"kind": "app", "name": "X", "app": {"screensMin": 50, "screensMax": 20}}`))
	if err == nil || !strings.Contains(err.Error(), "screensMin") {
		t.Fatalf("min>max accepted: %v", err)
	}
	// Explicit min above the defaulted max must also be caught.
	_, err = CompileApp([]byte(`{"kind": "app", "name": "X", "app": {"screensMin": 5000}}`))
	if err == nil {
		t.Fatal("min above defaulted max accepted")
	}
}

func TestCompileKindMismatch(t *testing.T) {
	_, err := CompileFaultPlan([]byte(`{"kind": "app", "name": "X", "app": {}}`))
	if err == nil || !strings.Contains(err.Error(), "want fault-plan") {
		t.Fatalf("kind mismatch not reported: %v", err)
	}
}

func TestEmitAppFixedPoint(t *testing.T) {
	a := mustCompileApp(t, `{"kind": "app", "name": "Round", "app": {"subspaces": 9, "login": true}}`)
	out, err := EmitApp(a)
	if err != nil {
		t.Fatalf("EmitApp: %v", err)
	}
	b, err := CompileApp(out)
	if err != nil {
		t.Fatalf("compile emitted: %v", err)
	}
	if b.Spec != a.Spec {
		t.Fatalf("emit round-trip changed the app:\n%+v\n%+v", a.Spec, b.Spec)
	}
	out2, err := EmitApp(b)
	if err != nil {
		t.Fatalf("EmitApp second: %v", err)
	}
	if string(out) != string(out2) {
		t.Fatal("emit is not a fixed point")
	}
}

func TestCanonicalHashStability(t *testing.T) {
	a := `{"kind": "app", "name": "X", "app": {"subspaces": 9, "login": true}}`
	b := "{\n  \"app\": {\"login\": true, \"subspaces\": 9},\n  \"name\": \"X\",\n  \"kind\": \"app\"\n}"
	ha, err := CanonicalHash([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := CanonicalHash([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("hash not stable under key order/whitespace: %s vs %s", ha, hb)
	}
	hc, err := CanonicalHash([]byte(`{"kind": "app", "name": "X", "app": {"subspaces": 10, "login": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("hash unchanged by a semantic edit")
	}
}

func TestCompiledCarriesHash(t *testing.T) {
	src := `{"kind": "app", "name": "X", "app": {}}`
	c, err := Compile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalHash([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash != want || c.App.Hash != want {
		t.Fatalf("hash not stamped: compiled=%s app=%s want=%s", c.Hash, c.App.Hash, want)
	}
}

func TestCompileFaultPlanDefaults(t *testing.T) {
	fp, err := CompileFaultPlan([]byte(`{"kind": "fault-plan", "name": "20%", "faults": {"failureRate": 0.2}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := faults.DefaultConfig(0.2)
	got := fp.Config
	if got.FailureRate != want.FailureRate || got.AllocFailRate != want.AllocFailRate ||
		got.TraceDelayRate != want.TraceDelayRate || got.TraceDropRate != want.TraceDropRate ||
		got.HangFraction != want.HangFraction || got.MinLife != want.MinLife || got.MaxLife != want.MaxLife {
		t.Fatalf("plan = %+v, want DefaultConfig(0.2) = %+v", got, want)
	}
}

func TestCompileFaultPlanContext(t *testing.T) {
	fp, err := CompileFaultPlan([]byte(`{"kind": "fault-plan", "name": "outage", "faults": {
		"context": [
			{"kind": "network-loss", "startSec": 60, "durationSec": 30},
			{"kind": "battery-low", "startSec": 300, "durationSec": 120, "delaySec": 2}
		]}}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := fp.Config.Context
	if len(ctx) != 2 {
		t.Fatalf("context = %+v, want 2 events", ctx)
	}
	if ctx[0].Kind != faults.NetworkLoss || ctx[0].Start != sim.Duration(60e9) || ctx[0].Duration != sim.Duration(30e9) {
		t.Fatalf("event 0 = %+v", ctx[0])
	}
	if ctx[1].Kind != faults.BatteryLow || ctx[1].Delay != sim.Duration(2e9) {
		t.Fatalf("event 1 = %+v", ctx[1])
	}
	if !fp.Config.Enabled() {
		t.Fatal("context-only plan reports disabled")
	}
}

func TestCompileFaultPlanContextErrors(t *testing.T) {
	_, err := CompileFaultPlan([]byte(`{"kind": "fault-plan", "name": "bad", "faults": {
		"context": [
			{"kind": "solar-flare", "startSec": 0, "durationSec": 1},
			{"kind": "network-loss", "durationSec": -1, "delaySec": 3},
			{"kind": "battery-low", "startSec": 5}
		]}}`))
	paths := issuePaths(t, err)
	want := []string{
		"$.faults.context[0].kind",
		"$.faults.context[1].startSec",
		"$.faults.context[1].durationSec",
		"$.faults.context[1].delaySec",
		"$.faults.context[2].durationSec",
	}
	for _, w := range want {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing issue at %s in %v", w, paths)
		}
	}
}

func TestCompileCampaign(t *testing.T) {
	c, err := CompileCampaign([]byte(`{"kind": "campaign", "name": "grid", "campaign": {
		"apps": ["Zedge"],
		"inlineApps": [{"name": "Tiny", "app": {"subspaces": 4}}],
		"tools": ["monkey", "stoat"],
		"settings": ["baseline", "taopt-duration"],
		"instances": 5, "durationMin": 60, "sampleEverySec": 10, "workers": 2, "seed": 7,
		"faults": {"failureRate": 0.05}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Apps) != 1 || c.Apps[0] != "Zedge" || len(c.InlineApps) != 1 || c.InlineApps[0].Spec.Name != "Tiny" {
		t.Fatalf("apps = %+v / %+v", c.Apps, c.InlineApps)
	}
	if c.Instances != 5 || c.Duration != sim.Duration(3600e9) || c.SampleEvery != sim.Duration(10e9) ||
		c.Workers != 2 || c.Seed != 7 {
		t.Fatalf("grid knobs wrong: %+v", c)
	}
	if c.Faults == nil || c.Faults.FailureRate != 0.05 {
		t.Fatalf("faults = %+v", c.Faults)
	}
	if c.InlineApps[0].Hash != c.Hash {
		t.Fatal("inline app does not carry the campaign hash")
	}
}

func TestCompileCampaignFaultGrid(t *testing.T) {
	c, err := CompileCampaign([]byte(`{"kind": "campaign", "name": "chaos", "campaign": {
		"settings": ["taopt-duration"],
		"faultGrid": [
			{"name": "0%", "faults": {"failureRate": 0}},
			{"name": "20%", "faults": {"failureRate": 0.2}}
		]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.FaultGrid) != 2 || c.FaultGrid[0].Name != "0%" || c.FaultGrid[1].Config.FailureRate != 0.2 {
		t.Fatalf("grid = %+v", c.FaultGrid)
	}
}

func TestCompileCampaignErrors(t *testing.T) {
	_, err := CompileCampaign([]byte(`{"kind": "campaign", "name": "bad", "campaign": {
		"apps": ["Zedge", "Zedge", ""],
		"settings": ["warp-speed"],
		"instances": 0,
		"faults": {"failureRate": 0.1},
		"faultGrid": [{"name": "a", "faults": {}}, {"name": "a", "faults": {}}]}}`))
	paths := issuePaths(t, err)
	want := []string{
		"$.campaign.apps[1]",
		"$.campaign.apps[2]",
		"$.campaign.settings[0]",
		"$.campaign.instances",
		"$.campaign.faults",
		"$.campaign.faultGrid[1]",
	}
	for _, w := range want {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing issue at %s in %v", w, paths)
		}
	}
}
