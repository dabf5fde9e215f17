package lint_test

import (
	"testing"

	"taopt/internal/lint"
	"taopt/internal/lint/linttest"
)

func TestWalltimeFlagsDeterministicPackage(t *testing.T) {
	linttest.Run(t, lint.Walltime(lint.DefaultConfig()), "taopt/internal/core", "testdata/walltime/det")
}

func TestWalltimeAllowsExemptPackage(t *testing.T) {
	// Same kind of code, checked under an exempted path: no findings. The
	// shipped contract exempts nothing, so the exemption is configured here.
	cfg := lint.DefaultConfig()
	cfg.WalltimeAllowed = []string{"taopt/internal/cli"}
	linttest.Run(t, lint.Walltime(cfg), "taopt/internal/cli", "testdata/walltime/cli")
}

func TestWalltimeIgnoresNonDeterministicTree(t *testing.T) {
	linttest.Run(t, lint.Walltime(lint.DefaultConfig()), "taopt/cmd/taopt", "testdata/walltime/cli")
}
