package lint

import "strings"

// Config scopes the analyzers to package trees. All matching is by import
// path: an entry matches the package itself and any subpackage.
type Config struct {
	// ModulePrefix is the module path plus a trailing slash; imports
	// outside it (stdlib) are never layering violations.
	ModulePrefix string
	// Deterministic lists the package trees under the determinism
	// contract: virtual clock only, seeded RNG only.
	Deterministic []string
	// WalltimeAllowed lists packages exempt from the walltime analyzer
	// even though they sit inside a Deterministic tree. The shipped
	// contract exempts none: no internal package reads the wall clock.
	WalltimeAllowed []string
	// RandAllowed is the equivalent exemption list for globalrand.
	RandAllowed []string
	// Layers is the depguard table the buslayer analyzer enforces.
	Layers []LayerRule
}

// LayerRule pins the module-internal imports one package tree may use.
// Imports into the package's own subtree are always allowed; everything
// else inside the module must appear in Allow.
type LayerRule struct {
	// Pkg is the governed package tree.
	Pkg string
	// Allow lists the permitted module-internal import trees.
	Allow []string
	// Hint explains the intended seam when the rule fires.
	Hint string
}

// DefaultConfig returns the contract this repository ships with. The
// layering table mirrors DESIGN.md §10: sim/ui are the base, obs and the
// instance-side packages (device, tools, toller) sit in the middle, bus is
// the only seam between the coordinator and the instances, and core knows
// nothing about how commands are executed.
func DefaultConfig() *Config {
	return &Config{
		ModulePrefix: "taopt/",
		Deterministic: []string{
			"taopt/internal",
		},
		WalltimeAllowed: nil,
		RandAllowed:     nil,
		Layers: []LayerRule{
			{
				Pkg:   "taopt/internal/sim",
				Allow: nil,
				Hint:  "sim is the deterministic kernel every layer builds on; it imports nothing from the module",
			},
			{
				Pkg:   "taopt/internal/ui",
				Allow: nil,
				Hint:  "ui is a pure model shared by every layer; it imports nothing from the module",
			},
			{
				Pkg:   "taopt/internal/coverage",
				Allow: nil,
				Hint:  "coverage is a pure accumulator; it imports nothing from the module",
			},
			{
				Pkg:   "taopt/internal/cli",
				Allow: nil,
				Hint:  "cli holds leaf process helpers shared by the binaries; it imports nothing from the module",
			},
			{
				Pkg:   "taopt/internal/trace",
				Allow: []string{"taopt/internal/sim", "taopt/internal/ui"},
				Hint:  "trace events are plain data moved over the bus; they may reference only the base types",
			},
			{
				Pkg: "taopt/internal/trace/bin",
				Allow: []string{
					"taopt/internal/obs", "taopt/internal/sim",
					"taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "the binary trace codec serialises trace events and telemetry records; the Run adapter lives in export, so bin must never import export or harness",
			},
			{
				Pkg: "taopt/internal/corpus",
				Allow: []string{
					"taopt/internal/obs", "taopt/internal/sim",
					"taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "corpus analytics stream binary traces (trace/bin) only; aggregating over exports or re-running the harness defeats the one-pass design",
			},
			{
				Pkg:   "taopt/internal/crash",
				Allow: []string{"taopt/internal/sim"},
				Hint:  "crash modeling depends only on the sim kernel",
			},
			{
				Pkg:   "taopt/internal/faults",
				Allow: []string{"taopt/internal/sim"},
				Hint:  "fault plans are applied by the bus decorator; faults itself depends only on the sim kernel",
			},
			{
				Pkg:   "taopt/internal/app",
				Allow: []string{"taopt/internal/sim", "taopt/internal/ui"},
				Hint:  "app models depend only on the base types",
			},
			{
				Pkg:   "taopt/internal/scenario",
				Allow: []string{"taopt/internal/app", "taopt/internal/faults", "taopt/internal/sim"},
				Hint:  "scenario compiles data into app/faults/sim config types; it must never import device, bus or harness — the harness lowers compiled campaigns, not the other way around",
			},
			{
				Pkg:   "taopt/internal/apps",
				Allow: []string{"taopt/internal/app", "taopt/internal/scenario"},
				Hint:  "the catalog compiles embedded scenario files into app models",
			},
			{
				Pkg:   "taopt/internal/graph",
				Allow: []string{"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui"},
				Hint:  "graph analysis consumes traces and base types only",
			},
			{
				Pkg:   "taopt/internal/obs",
				Allow: []string{"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui"},
				Hint:  "obs is a leaf the whole system reports into; it must not import anything above the base types",
			},
			{
				Pkg:   "taopt/internal/metrics",
				Allow: []string{"taopt/internal/coverage", "taopt/internal/sim", "taopt/internal/ui"},
				Hint:  "paper metrics are pure functions of run data",
			},
			{
				Pkg: "taopt/internal/device",
				Allow: []string{
					"taopt/internal/app", "taopt/internal/coverage", "taopt/internal/crash",
					"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "the device farm is instance-side; it must not reach up into coordination (bus, core, harness)",
			},
			{
				Pkg: "taopt/internal/toller",
				Allow: []string{
					"taopt/internal/app", "taopt/internal/device",
					"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "the tool driver is instance-side; it must not reach up into coordination (bus, core, harness)",
			},
			{
				Pkg: "taopt/internal/tools",
				Allow: []string{
					"taopt/internal/app", "taopt/internal/device", "taopt/internal/sim",
					"taopt/internal/toller", "taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "testing tools are instance-side; they must not reach up into coordination (bus, core, harness)",
			},
			{
				Pkg: "taopt/internal/bus",
				Allow: []string{
					"taopt/internal/device", "taopt/internal/faults",
					"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "bus is the coordination seam; it bridges down to instances and must not import the layers that ride on it",
			},
			{
				Pkg: "taopt/internal/bus/wire",
				Allow: []string{
					"taopt/internal/bus",
					"taopt/internal/sim", "taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "the wire framing serialises bus traffic and nothing else; fault injection composes over it via bus.WithFaults, never inside it",
			},
			{
				Pkg: "taopt/internal/core",
				Allow: []string{
					"taopt/internal/bus", "taopt/internal/graph", "taopt/internal/obs",
					"taopt/internal/sim", "taopt/internal/toller", "taopt/internal/trace",
					"taopt/internal/ui",
				},
				Hint: "the coordinator talks to instances only through bus.Sender/bus.Executor; importing device or harness shortcuts the PR-2 seam",
			},
			{
				Pkg: "taopt/internal/harness",
				Allow: []string{
					"taopt/internal/app", "taopt/internal/apps", "taopt/internal/bus",
					"taopt/internal/core", "taopt/internal/coverage", "taopt/internal/crash",
					"taopt/internal/device", "taopt/internal/faults", "taopt/internal/graph",
					"taopt/internal/metrics", "taopt/internal/obs", "taopt/internal/scenario",
					"taopt/internal/sim", "taopt/internal/toller", "taopt/internal/tools",
					"taopt/internal/trace", "taopt/internal/ui",
				},
				Hint: "the harness is the top-of-stack run executor wiring every layer together; only export/report and the binaries sit above it — it must never import those, or the lint/corpus toolchain",
			},
			{
				Pkg: "taopt/internal/export",
				Allow: []string{
					"taopt/internal/bus", "taopt/internal/core", "taopt/internal/harness",
					"taopt/internal/obs", "taopt/internal/sim", "taopt/internal/trace",
					"taopt/internal/ui",
				},
				Hint: "export renders and replays finished runs; it reads the run-side layers but only the binaries sit above it",
			},
			{
				Pkg: "taopt/internal/report",
				Allow: []string{
					"taopt/internal/faults", "taopt/internal/harness", "taopt/internal/metrics",
					"taopt/internal/obs", "taopt/internal/sim",
				},
				Hint: "report renders experiment tables from harness results; it never reaches below the harness",
			},
			{
				Pkg: "taopt/internal/service",
				Allow: []string{
					"taopt/internal/export", "taopt/internal/harness",
					"taopt/internal/report", "taopt/internal/scenario",
				},
				Hint: "the campaign service queues scenario runs onto the harness and serves export/report renderings; it must never reach below the harness seam — the deterministic core stays untouched behind the API",
			},
			{
				Pkg:   "taopt/internal/lint",
				Allow: nil,
				Hint:  "the lint suite analyzes the module from outside; it must not import the code it checks",
			},
		},
	}
}

// matches reports whether pkg is tree or sits inside it.
func matches(pkg, tree string) bool {
	return pkg == tree || strings.HasPrefix(pkg, tree+"/")
}

func matchesAny(pkg string, trees []string) bool {
	for _, t := range trees {
		if matches(pkg, t) {
			return true
		}
	}
	return false
}

// deterministic reports whether pkg is under the determinism contract.
func (c *Config) deterministic(pkg string) bool {
	return matchesAny(pkg, c.Deterministic)
}

// layerRule returns the layering rule governing pkg, or nil. The most
// specific (longest) matching tree wins, so a subtree may carry a stricter
// rule than its parent — bus/wire is narrower than bus.
func (c *Config) layerRule(pkg string) *LayerRule {
	var best *LayerRule
	for i := range c.Layers {
		r := &c.Layers[i]
		if matches(pkg, r.Pkg) && (best == nil || len(r.Pkg) > len(best.Pkg)) {
			best = r
		}
	}
	return best
}
