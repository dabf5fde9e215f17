package scenario

import (
	"strings"
	"testing"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

func mustCompileRun(t *testing.T, src string) *RunSpec {
	t.Helper()
	rs, err := CompileRun([]byte(src))
	if err != nil {
		t.Fatalf("CompileRun: %v", err)
	}
	return rs
}

func TestCompileRunCatalog(t *testing.T) {
	rs := mustCompileRun(t, `{"kind": "run", "name": "chaos cell", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
		"instances": 5, "durationMin": 8, "budgetMin": 40, "sampleEverySec": 10,
		"seed": 15, "telemetry": true, "faults": {"failureRate": 0.2}}}`)
	if rs.Name != "chaos cell" || rs.AppName != "Filters For Selfie" || rs.App != nil {
		t.Fatalf("app resolution wrong: %+v", rs)
	}
	if rs.Tool != "monkey" || rs.Setting != "taopt-duration" {
		t.Fatalf("tool/setting wrong: %+v", rs)
	}
	if rs.Instances != 5 || rs.Duration != sim.Duration(480e9) || rs.MachineBudget != sim.Duration(2400e9) ||
		rs.SampleEvery != sim.Duration(10e9) || rs.Seed != 15 || !rs.Telemetry {
		t.Fatalf("run knobs wrong: %+v", rs)
	}
	want := faults.DefaultConfig(0.2)
	if rs.Faults == nil || rs.Faults.FailureRate != want.FailureRate || rs.Faults.HangFraction != want.HangFraction {
		t.Fatalf("faults = %+v, want DefaultConfig(0.2)", rs.Faults)
	}
	if rs.Hash == "" || rs.ConfigHash == "" {
		t.Fatalf("hashes not stamped: %+v", rs)
	}
	if rs.Hash == rs.ConfigHash {
		t.Fatal("ConfigHash should exclude the name and differ from the document hash")
	}
}

func TestCompileRunDefaults(t *testing.T) {
	rs := mustCompileRun(t, `{"kind": "run", "name": "min", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline"}}`)
	if rs.Instances != 0 || rs.Duration != 0 || rs.MachineBudget != 0 || rs.SampleEvery != 0 ||
		rs.Seed != 0 || rs.Telemetry || rs.Faults != nil {
		t.Fatalf("omitted fields must stay zero for harness defaulting: %+v", rs)
	}
}

func TestCompileRunConfigHashIgnoresName(t *testing.T) {
	a := mustCompileRun(t, `{"kind": "run", "name": "alpha", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline", "seed": 3}}`)
	b := mustCompileRun(t, "{\n  \"run\": {\"seed\": 3, \"setting\": \"baseline\", \"tool\": \"monkey\", \"app\": \"Zedge\"},\n  \"name\": \"beta\",\n  \"kind\": \"run\"\n}")
	if a.Hash == b.Hash {
		t.Fatal("document hash should include the name")
	}
	if a.ConfigHash != b.ConfigHash {
		t.Fatalf("renamed run changed the cache key: %s vs %s", a.ConfigHash, b.ConfigHash)
	}
	c := mustCompileRun(t, `{"kind": "run", "name": "alpha", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline", "seed": 4}}`)
	if c.ConfigHash == a.ConfigHash {
		t.Fatal("semantic edit left the cache key unchanged")
	}
}

func TestCompileRunInlineAppHashMatchesStandalone(t *testing.T) {
	rs := mustCompileRun(t, `{"kind": "run", "name": "inline", "run": {
		"inlineApp": {"name": "Tiny", "app": {"subspaces": 4, "login": true}},
		"tool": "monkey", "setting": "baseline"}}`)
	if rs.App == nil || rs.AppName != "Tiny" {
		t.Fatalf("inline app not compiled under its own name: %+v", rs)
	}
	standalone := mustCompileApp(t, `{"schemaVersion": 1, "kind": "app", "name": "Tiny", "app": {"subspaces": 4, "login": true}}`)
	if rs.App.Spec != standalone.Spec {
		t.Fatalf("inline spec diverges from standalone:\n%+v\n%+v", rs.App.Spec, standalone.Spec)
	}
	if rs.App.Hash != standalone.Hash {
		t.Fatalf("inline app hash %s != standalone document hash %s — service exports would not match taopt -scenario",
			rs.App.Hash, standalone.Hash)
	}
}

func TestCompileRunAllErrors(t *testing.T) {
	_, err := CompileRun([]byte(`{"kind": "run", "name": "bad", "run": {
		"setting": "warp-speed", "instances": 0, "durationMin": -1,
		"budgetMin": 0, "sampleEverySec": 0, "faults": {"failureRate": 2},
		"bogus": 1}}`))
	paths := issuePaths(t, err)
	want := []string{
		"$.run.app",
		"$.run.tool",
		"$.run.setting",
		"$.run.instances",
		"$.run.durationMin",
		"$.run.budgetMin",
		"$.run.sampleEverySec",
		"$.run.faults.failureRate",
		"$.run.bogus",
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

func TestCompileRunAppXorInline(t *testing.T) {
	_, err := CompileRun([]byte(`{"kind": "run", "name": "both", "run": {
		"app": "Zedge", "inlineApp": {"name": "T", "app": {}},
		"tool": "monkey", "setting": "baseline"}}`))
	if err == nil || !strings.Contains(err.Error(), "pick one") {
		t.Fatalf("app+inlineApp accepted: %v", err)
	}
}

func TestCompileRunKindMismatch(t *testing.T) {
	_, err := CompileRun([]byte(`{"kind": "app", "name": "X", "app": {}}`))
	if err == nil || !strings.Contains(err.Error(), "want run") {
		t.Fatalf("kind mismatch not reported: %v", err)
	}
}

func TestCanonicalHashExcluding(t *testing.T) {
	a := `{"kind": "run", "name": "alpha", "run": {"app": "Zedge"}}`
	b := `{"kind": "run", "name": "beta", "run": {"app": "Zedge"}}`
	ha, err := CanonicalHashExcluding([]byte(a), "name")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := CanonicalHashExcluding([]byte(b), "name")
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("name exclusion failed: %s vs %s", ha, hb)
	}
	hc, err := CanonicalHash([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	if ha == hc {
		t.Fatal("excluding a present member should change the hash")
	}
}
