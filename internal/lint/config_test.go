package lint

import "testing"

func TestConfigMatching(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		pkg  string
		det  bool
		rule string // governing layer rule's Pkg, "" for none
	}{
		{"taopt/internal/core", true, "taopt/internal/core"},
		// Longest-match: the wire subtree carries its own, stricter rule.
		{"taopt/internal/bus", true, "taopt/internal/bus"},
		{"taopt/internal/bus/wire", true, "taopt/internal/bus/wire"},
		{"taopt/internal/sim", true, "taopt/internal/sim"},
		// Subtree inheritance: fleet is governed by the harness rule.
		{"taopt/internal/harness", true, "taopt/internal/harness"},
		{"taopt/internal/harness/fleet", true, "taopt/internal/harness"},
		{"taopt/internal/cli", true, "taopt/internal/cli"},
		{"taopt/cmd/taopt", false, ""},
		{"taopt", false, ""},
		// Prefix matching is per path segment: a hypothetical simext
		// package is not inside the sim tree.
		{"taopt/internal/simext", true, ""},
	}
	for _, c := range cases {
		if got := cfg.deterministic(c.pkg); got != c.det {
			t.Errorf("deterministic(%q) = %v, want %v", c.pkg, got, c.det)
		}
		rule := cfg.layerRule(c.pkg)
		switch {
		case rule == nil && c.rule != "":
			t.Errorf("layerRule(%q) = nil, want %q", c.pkg, c.rule)
		case rule != nil && rule.Pkg != c.rule:
			t.Errorf("layerRule(%q) = %q, want %q", c.pkg, rule.Pkg, c.rule)
		}
	}
}

func TestWalltimeExemptionIsScoped(t *testing.T) {
	if matchesAny("taopt/internal/cli", DefaultConfig().WalltimeAllowed) {
		t.Fatal("the shipped contract exempts no package from walltime, internal/cli included")
	}
	cfg := DefaultConfig()
	cfg.WalltimeAllowed = []string{"taopt/internal/cli"}
	if !matchesAny("taopt/internal/cli", cfg.WalltimeAllowed) {
		t.Fatal("an exempted package must match its own entry")
	}
	if matchesAny("taopt/internal/climate", cfg.WalltimeAllowed) {
		t.Fatal("exemption must not leak to sibling packages by raw prefix")
	}
}
