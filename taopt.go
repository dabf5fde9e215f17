// Package taopt is a tool-agnostic optimizer for parallelized automated
// mobile UI testing, reproducing "TaOPT: Tool-Agnostic Optimization of
// Parallelized Automated Mobile UI Testing" (ASPLOS 2025).
//
// TaOPT watches the UI transition traces of any automated UI testing tool
// running on multiple testing instances, identifies loosely coupled UI
// subspaces of the app under test online (Algorithm 1, "FindSpace"), and
// dedicates each subspace to one instance by disabling its entrypoints
// everywhere else — no changes to the tool or the app.
//
// The package bundles everything needed to run end to end on a laptop:
// synthetic Android-like apps (generated or hand-built), simulated testing
// instances on a deterministic virtual clock, reimplementations of the
// Monkey / Ape / WCTester exploration strategies, the TaOPT coordinator in
// both its duration-constrained and resource-constrained modes, and the
// measurement harness that regenerates the paper's tables and figures.
//
// Quickstart:
//
//	app := taopt.LoadApp("AccuWeather")
//	res, err := taopt.Run(taopt.RunConfig{
//		App:     app,
//		Tool:    "monkey",
//		Setting: taopt.TaOPTDuration,
//	})
//	fmt.Println(res.Union.Count(), "methods covered")
//
// See example_test.go for runnable walk-throughs and DESIGN.md for the
// system map.
package taopt

import (
	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/bus"
	"taopt/internal/core"
	"taopt/internal/coverage"
	"taopt/internal/crash"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/metrics"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/tools"
	"taopt/internal/ui"
)

// Core run types. These are aliases of the implementing packages' types, so
// everything documented there applies verbatim.
type (
	// App is a synthetic App Under Test: a stochastic UI transition graph
	// with activities, methods and planted crashes.
	App = app.App
	// AppSpec parameterises the synthetic app generator.
	AppSpec = app.Spec
	// RunConfig describes one testing campaign run.
	RunConfig = harness.RunConfig
	// RunResult is a completed run's measurements.
	RunResult = harness.RunResult
	// InstanceResult is one testing instance's outcome within a run.
	InstanceResult = harness.InstanceResult
	// Setting selects the parallelization strategy of a run.
	Setting = harness.Setting
	// Subspace is a loosely coupled UI subspace identified by TaOPT.
	Subspace = core.Subspace
	// CoordinatorConfig tunes TaOPT's analyzer and coordinator (ablations).
	CoordinatorConfig = core.Config
	// Campaign caches runs across a grid of (app, tool, setting) cells.
	Campaign = harness.Campaign
	// CampaignConfig parameterises a Campaign.
	CampaignConfig = harness.CampaignConfig
	// CoverageSet is a covered-method set.
	CoverageSet = coverage.Set
	// CrashReport is one deduplicated crash observation.
	CrashReport = crash.Report
	// Timeline is a run's sampled progress (wall time, machine time,
	// coverage, crashes, AJS).
	Timeline = metrics.Timeline
	// FaultConfig parameterises deterministic device-farm fault injection
	// (chaos campaigns); pass one via RunConfig.Faults or
	// CampaignConfig.Faults.
	FaultConfig = faults.Config
	// FaultStats counts the faults a chaos fault plan drew; runs report the
	// transport-level view instead (see TransportStats).
	FaultStats = faults.Stats
	// TransportStats is a run's coordination-transport accounting: trace
	// events published and delivered, commands carried, and injected faults
	// (RunResult.Transport).
	TransportStats = bus.Stats
	// Telemetry is a run's observability bundle — the coordinator's decision
	// log and the metrics registry — collected when RunConfig.Telemetry is
	// set (RunResult.Telemetry).
	Telemetry = obs.Telemetry
	// Decision is one typed decision-log entry (candidate verdicts, subspace
	// lifecycle, health verdicts, allocation backoff).
	Decision = obs.Decision
	// Duration is virtual time.
	Duration = sim.Duration
	// ScreenSignature identifies an abstract UI screen.
	ScreenSignature = ui.Signature
)

// Run settings.
const (
	// Baseline runs uncoordinated instances differing only in random seeds.
	Baseline = harness.BaselineParallel
	// TaOPTDuration keeps d_max instances busy for the whole wall-clock
	// budget, coordinated by TaOPT.
	TaOPTDuration = harness.TaOPTDuration
	// TaOPTResource grows from one instance within a machine-time budget,
	// coordinated by TaOPT.
	TaOPTResource = harness.TaOPTResource
	// ActivityPartition is the activity-granularity baseline (ParaAim-like).
	ActivityPartition = harness.ActivityPartition
	// SingleLong runs one instance for the whole machine-time budget.
	SingleLong = harness.SingleLong
)

// Coordinator modes (used in CoordinatorConfig).
const (
	DurationConstrained = core.DurationConstrained
	ResourceConstrained = core.ResourceConstrained
)

// Time helpers for configs.
const (
	Second = sim.Duration(1e9)
	Minute = 60 * Second
	Hour   = 60 * Minute
)

// Run executes one campaign run on virtual time and returns its
// measurements.
func Run(cfg RunConfig) (*RunResult, error) { return harness.Run(cfg) }

// NewCampaign returns a run cache over a grid of (app, tool, setting) cells;
// use it with the internal/report renderers via cmd/experiments, or directly
// for custom sweeps.
func NewCampaign(cfg CampaignConfig) *Campaign { return harness.NewCampaign(cfg) }

// GenerateApp builds a synthetic app from a spec. The same spec (including
// Seed) always generates the identical app.
func GenerateApp(spec AppSpec) *App { return app.Generate(spec) }

// NewAppSpec returns a mid-size app spec to customise.
func NewAppSpec(name string, seed int64) AppSpec { return app.DefaultSpec(name, seed) }

// MotivatingExample returns the hand-built online-shopping app of the
// paper's Figure 2.
func MotivatingExample() *App { return app.MotivatingExample() }

// LoadApp returns one of the 18 evaluation apps by its Table 3 name
// (e.g. "Zedge"). It panics on unknown names; use CatalogNames to list them.
func LoadApp(name string) *App { return apps.MustLoad(name) }

// CatalogNames lists the 18 evaluation apps.
func CatalogNames() []string { return apps.Names() }

// ToolNames lists the available testing tools ("ape", "monkey", "wctester").
func ToolNames() []string { return tools.Names() }

// DefaultCoordinatorConfig returns the paper's coordinator configuration for
// a mode; override fields for ablations and pass it via RunConfig.CoreConfig.
func DefaultCoordinatorConfig(mode core.Mode) CoordinatorConfig {
	return core.DefaultConfig(mode)
}

// DefaultFaultConfig returns a calibrated fault mix for the given
// instance-failure rate (deaths, hangs, allocation outages, trace loss and
// delay); see internal/faults for the knobs.
func DefaultFaultConfig(failureRate float64) FaultConfig {
	return faults.DefaultConfig(failureRate)
}

// Jaccard returns the Jaccard similarity of two covered-method sets.
func Jaccard(a, b *CoverageSet) float64 { return metrics.Jaccard(a, b) }

// AJS returns the Average Jaccard Similarity across instances' sets (Eq. 1).
func AJS(sets []*CoverageSet) float64 { return metrics.AJS(sets) }
