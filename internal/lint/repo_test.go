package lint_test

import (
	"testing"

	"taopt/internal/lint"
)

// TestRepoIsLintClean runs the full taoptvet suite over the real module —
// the same invocation as the CI step — and demands zero findings, so a
// change that breaks the determinism or layering contract fails `go test`
// even before the lint step runs.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader := lint.NewLoader(root)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the ./... pattern no longer covers the module", len(pkgs))
	}
	findings, err := lint.Analyze(pkgs, lint.Analyzers(lint.DefaultConfig()))
	if err != nil {
		t.Fatalf("analyzing: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}

	// The suppression audit rides the same load. Every //lint:allow is a
	// standing exception to the contract, so the count is pinned: adding one
	// means consciously bumping the budget here, with the new justification
	// on record in `taoptvet -allows`.
	const allowBudget = 1 // replay.go consumeExchange
	allows, malformed := lint.ModuleAllows(pkgs)
	for _, f := range malformed {
		t.Errorf("%s", f)
	}
	if len(allows) != allowBudget {
		for _, a := range allows {
			t.Logf("allow %s:%d: %s %q", a.Pos.Filename, a.Pos.Line, a.Analyzer, a.Justification)
		}
		t.Errorf("module carries %d //lint:allow suppressions, budget is %d; "+
			"audit with `go run ./cmd/taoptvet -allows ./...` and adjust the budget deliberately",
			len(allows), allowBudget)
	}

	// And the layering table must stay fresh: a rule for a renamed or
	// deleted tree is a hole layercover cannot see per-package.
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	for _, msg := range lint.StaleLayerRules(lint.DefaultConfig(), paths) {
		t.Errorf("%s", msg)
	}
}
