// Package core implements TaOPT's contribution: the on-the-fly trace analyzer
// that identifies loosely coupled UI subspaces (Algorithm 1, "FindSpace") and
// the test coordinator that dedicates subspaces to testing instances in the
// duration-constrained and resource-constrained modes (Section 5).
//
// Tool-agnosticism is structural: this package depends only on the Toller
// contract (trace events, block sets) and the ui abstraction. It never
// imports the testing tools or the app model.
package core

import (
	"math"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

// ScreenVisit is one point of a UI transition trace: the abstract screen the
// instance arrived at, and when.
type ScreenVisit struct {
	Sig ui.Signature
	At  sim.Duration
}

// FindSpaceResult is the output of one run of Algorithm 1 ("FindSpace") over
// an instance's visit window.
type FindSpaceResult struct {
	// POut is the index of the identified subspace's entrypoint in the
	// input trace.
	POut int
	// Entry is the abstract screen at POut — the subspace's entrypoint.
	Entry ui.Signature
	// Members are the distinct abstract screens of S[POut:N].
	Members []ui.Signature
	// Score is the minimised partition score (Algorithm 1, line 11).
	Score float64
	// OverlapScore and PurityScore are the score's components at the chosen
	// split (score = overlap + 2·purity − 1); the telemetry layer logs them
	// so threshold calibration can see *why* a window scored as it did.
	OverlapScore float64
	PurityScore  float64
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
