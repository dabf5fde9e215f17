package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

func mustCompileRunT(t *testing.T, src string) *scenario.RunSpec {
	t.Helper()
	rs, err := scenario.CompileRun([]byte(src))
	if err != nil {
		t.Fatalf("CompileRun: %v", err)
	}
	return rs
}

func mustLookup(t *testing.T, name string) scenario.App {
	t.Helper()
	e, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFromRunScenarioCatalog(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "cell", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
		"instances": 4, "durationMin": 8, "budgetMin": 32, "sampleEverySec": 5,
		"seed": 15, "telemetry": true, "faults": {"failureRate": 0.2}}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatalf("FromRunScenario: %v", err)
	}
	if cfg.App == nil || cfg.App.Name != "Filters For Selfie" {
		t.Fatalf("app not resolved: %+v", cfg.App)
	}
	if cfg.ScenarioHash != mustLookup(t, "Filters For Selfie").Hash {
		t.Fatalf("ScenarioHash = %s, want the catalog document hash", cfg.ScenarioHash)
	}
	if cfg.Tool != "monkey" || cfg.Setting != TaOPTDuration {
		t.Fatalf("tool/setting wrong: %+v", cfg)
	}
	if cfg.Instances != 4 || cfg.Duration != sim.Duration(480e9) || cfg.MachineBudget != sim.Duration(32*60e9) ||
		cfg.SampleEvery != sim.Duration(5e9) || cfg.Seed != 15 || !cfg.Telemetry {
		t.Fatalf("knobs wrong: %+v", cfg)
	}
	if cfg.Faults == nil || cfg.Faults.FailureRate != 0.2 {
		t.Fatalf("faults = %+v", cfg.Faults)
	}
}

func TestFromRunScenarioInline(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "inline", "run": {
		"inlineApp": {"name": "Tiny", "app": {"subspaces": 4}},
		"tool": "monkey", "setting": "baseline"}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatalf("FromRunScenario: %v", err)
	}
	if cfg.App == nil || cfg.App.Name != "Tiny" {
		t.Fatalf("inline app not generated: %+v", cfg.App)
	}
	if cfg.ScenarioHash != rs.App.Hash {
		t.Fatalf("ScenarioHash = %s, want the inline document hash %s", cfg.ScenarioHash, rs.App.Hash)
	}
	// Lowered defaults stay zero; Run applies the usual defaults.
	if cfg.Instances != 0 || cfg.Duration != 0 {
		t.Fatalf("omitted fields must stay zero: %+v", cfg)
	}
}

func TestFromRunScenarioRejectsUnknowns(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "x", "run": {
		"app": "NopeApp", "tool": "monkey", "setting": "baseline"}}`)
	if _, err := FromRunScenario(rs); err == nil {
		t.Fatal("unknown catalog app accepted")
	}
	rs = mustCompileRunT(t, `{"kind": "run", "name": "x", "run": {
		"app": "Zedge", "tool": "hypermonkey", "setting": "baseline"}}`)
	if _, err := FromRunScenario(rs); err == nil {
		t.Fatal("unknown tool accepted")
	}
}

// ShareRunScenario lowers like FromRunScenario, but overlapping lowerings of
// one app spec, catalog or inline, hand out one shared app, and the last
// release drops it.
func TestShareRunScenario(t *testing.T) {
	const doc = `{"kind": "run", "name": "cell", "run": {
		"app": "Marvel Comics", "tool": "monkey", "setting": "taopt-duration",
		"durationMin": 8, "seed": %d, "faults": {"failureRate": 0.2}}}`
	a, releaseA, err := ShareRunScenario(mustCompileRunT(t, fmt.Sprintf(doc, 1)))
	if err != nil {
		t.Fatal(err)
	}
	b, releaseB, err := ShareRunScenario(mustCompileRunT(t, fmt.Sprintf(doc, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if a.App != b.App {
		t.Fatal("overlapping lowerings of one catalog app hold different apps")
	}
	owned, err := FromRunScenario(mustCompileRunT(t, fmt.Sprintf(doc, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, owned) {
		t.Fatalf("shared lowering differs from FromRunScenario:\n%+v\nvs\n%+v", a, owned)
	}
	releaseA()
	releaseB()
	c, releaseC, err := ShareRunScenario(mustCompileRunT(t, fmt.Sprintf(doc, 1)))
	if err != nil {
		t.Fatal(err)
	}
	releaseC()
	if c.App == a.App {
		t.Fatal("a lowering after the last release got the dropped app")
	}

	// Two inline documents that spell one spec differently (the second
	// writes out a default) hash apart but share one app, and each lowering
	// keeps its own document's hash.
	const inline = `{"kind": "run", "name": "inline", "run": {
		"inlineApp": {"name": "Tiny", "app": {"subspaces": 4%s}},
		"tool": "monkey", "setting": "baseline"}}`
	xs := mustCompileRunT(t, fmt.Sprintf(inline, ""))
	ys := mustCompileRunT(t, fmt.Sprintf(inline, `, "version": "1.0.0"`))
	x, releaseX, err := ShareRunScenario(xs)
	if err != nil {
		t.Fatal(err)
	}
	y, releaseY, err := ShareRunScenario(ys)
	if err != nil {
		t.Fatal(err)
	}
	releaseX()
	releaseY()
	if xs.App.Spec != ys.App.Spec || xs.App.Hash == ys.App.Hash {
		t.Fatal("the inline documents must share a spec and differ in hash")
	}
	if x.App != y.App || x.ScenarioHash != xs.App.Hash || y.ScenarioHash != ys.App.Hash {
		t.Fatalf("inline lowerings: shared app %v, hashes %s and %s; want one app and hashes %s and %s",
			x.App == y.App, x.ScenarioHash, y.ScenarioHash, xs.App.Hash, ys.App.Hash)
	}

	if _, _, err := ShareRunScenario(mustCompileRunT(t, `{"kind": "run", "name": "x", "run": {
		"app": "NopeApp", "tool": "monkey", "setting": "baseline"}}`)); err == nil {
		t.Fatal("unknown catalog app accepted")
	}
}

// A lowered run scenario must be indistinguishable from the equivalent
// hand-built RunConfig — the property the service's cache-equivalence oracle
// (served export == offline taopt export) stands on.
func TestFromRunScenarioMatchesDirectConfig(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "eq", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
		"durationMin": 6, "seed": 7}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := RunConfig{
		App:          apps.MustLoad("Filters For Selfie"),
		Tool:         "monkey",
		Setting:      TaOPTDuration,
		Duration:     6 * sim.Duration(60e9),
		Seed:         7,
		ScenarioHash: mustLookup(t, "Filters For Selfie").Hash,
	}
	b, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if a.Union.Count() != b.Union.Count() || a.UniqueCrashes != b.UniqueCrashes || a.Events != b.Events {
		t.Fatalf("lowered run diverges from direct config: %d/%d/%d vs %d/%d/%d",
			a.Union.Count(), a.UniqueCrashes, a.Events, b.Union.Count(), b.UniqueCrashes, b.Events)
	}
}

func TestCellSummaryCarriesScenarioHash(t *testing.T) {
	cfg := tinyConfig()
	var progress bytes.Buffer
	cfg.Progress = &progress
	c := NewCampaign(cfg)
	cell := mustCellT(t, c, "Filters For Selfie", "monkey", BaselineParallel)
	want := mustLookup(t, "Filters For Selfie").Hash
	if cell.Hash != want {
		t.Fatalf("cell hash = %q, want catalog hash %q", cell.Hash, want)
	}
	line := progress.String()
	if !strings.Contains(line, "hash="+want[:12]) {
		t.Fatalf("progress line missing the scenario hash prefix: %q", line)
	}
}

// TestSettingNamesMatchStrings pins scenario.SettingNames, the vocabulary
// scenario documents, the -setting flag and ParseSetting's error share,
// against Setting.String: every setting exactly once, in declaration order.
func TestSettingNamesMatchStrings(t *testing.T) {
	var want []string
	for s := BaselineParallel; s <= PATSMasterSlave; s++ {
		want = append(want, s.String())
	}
	if got := scenario.SettingNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scenario.SettingNames() = %v, want %v", got, want)
	}
	_, err := ParseSetting("warp")
	if err == nil || !strings.Contains(err.Error(), strings.Join(want, ", ")) {
		t.Fatalf("ParseSetting error %v does not list %v", err, want)
	}
}
