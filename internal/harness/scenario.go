package harness

import (
	"fmt"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/scenario"
	"taopt/internal/tools"
)

// App resolves one campaign app name to its spec and document hash: the
// campaign's inline scenario app of that name if it has one, the catalog app
// otherwise. It generates nothing.
func (c *Campaign) App(name string) (scenario.App, error) {
	if sa, ok := c.cfg.ScenarioApps[name]; ok {
		return sa, nil
	}
	return apps.Lookup(name)
}

// FromScenario lowers a compiled campaign scenario onto a CampaignConfig.
// Absent scenario fields stay zero so the usual campaign defaults (or the
// caller's flag overrides) apply; inline apps join the app axis under their
// own names. The scenario's fault grid is not lowered here — it drives
// report.ChaosGrid — but a single fault plan is.
func FromScenario(sc *scenario.Campaign) (CampaignConfig, error) {
	cfg := CampaignConfig{
		Apps:        append([]string(nil), sc.Apps...),
		Tools:       append([]string(nil), sc.Tools...),
		Instances:   sc.Instances,
		Duration:    sc.Duration,
		SampleEvery: sc.SampleEvery,
		Workers:     sc.Workers,
		Seed:        sc.Seed,
	}
	if len(sc.InlineApps) > 0 {
		cfg.ScenarioApps = make(map[string]scenario.App, len(sc.InlineApps))
		for _, a := range sc.InlineApps {
			name := a.Spec.Name
			if _, dup := cfg.ScenarioApps[name]; dup {
				return CampaignConfig{}, fmt.Errorf("harness: scenario %q defines app %q twice", sc.Name, name)
			}
			cfg.ScenarioApps[name] = a
			cfg.Apps = append(cfg.Apps, name)
		}
	}
	if sc.Faults != nil {
		f := *sc.Faults
		cfg.Faults = &f
	}
	return cfg, nil
}

// runApp resolves a run document's app: its inline app, or the catalog app
// it names.
func runApp(rs *scenario.RunSpec) (scenario.App, error) {
	if rs.App != nil {
		return *rs.App, nil
	}
	return apps.Lookup(rs.AppName)
}

// CheckRunScenario reports why the harness cannot run rs — an unknown
// catalog app, tool or setting — without generating the app, so the
// campaign service can reject a bad submit before it is queued.
func CheckRunScenario(rs *scenario.RunSpec) error {
	if _, err := runApp(rs); err != nil {
		return err
	}
	if _, err := tools.New(rs.Tool, 0); err != nil {
		return err
	}
	_, err := ParseSetting(rs.Setting)
	return err
}

// FromRunScenario lowers a compiled run scenario onto a RunConfig whose app
// the caller owns. The app resolves like a campaign cell — the inline spec,
// or the catalog app — and the export's scenario_hash names the app document
// either way, so a lowered run is indistinguishable from the equivalent
// `taopt -scenario` invocation. Absent scenario fields stay zero for the
// usual Run defaults; anything CheckRunScenario rejects is an error.
func FromRunScenario(rs *scenario.RunSpec) (RunConfig, error) {
	cfg, spec, err := lowerRunScenario(rs)
	if err != nil {
		return RunConfig{}, err
	}
	cfg.App = app.Generate(spec)
	return cfg, nil
}

// ShareRunScenario is FromRunScenario for the campaign service's computes,
// which overlap: the app comes from apps.Share, so concurrent runs of one
// spec read one generated copy, and the caller calls release once it is
// done with the RunConfig and the run's result.
func ShareRunScenario(rs *scenario.RunSpec) (RunConfig, func(), error) {
	cfg, spec, err := lowerRunScenario(rs)
	if err != nil {
		return RunConfig{}, nil, err
	}
	aut, release := apps.Share(spec)
	cfg.App = aut
	return cfg, release, nil
}

// lowerRunScenario lowers everything of rs but the app itself, and returns
// the spec to generate or share it from.
func lowerRunScenario(rs *scenario.RunSpec) (RunConfig, app.Spec, error) {
	if err := CheckRunScenario(rs); err != nil {
		return RunConfig{}, app.Spec{}, err
	}
	sa, _ := runApp(rs)                    // checked above
	setting, _ := ParseSetting(rs.Setting) // checked above
	cfg := RunConfig{
		Tool:          rs.Tool,
		Setting:       setting,
		Instances:     rs.Instances,
		Duration:      rs.Duration,
		MachineBudget: rs.MachineBudget,
		SampleEvery:   rs.SampleEvery,
		Seed:          rs.Seed,
		ScenarioHash:  sa.Hash,
		Telemetry:     rs.Telemetry,
	}
	if rs.Faults != nil {
		f := *rs.Faults
		cfg.Faults = &f
	}
	return cfg, sa.Spec, nil
}

// ScenarioSettings parses a campaign scenario's setting names into harness
// settings.
func ScenarioSettings(sc *scenario.Campaign) ([]Setting, error) {
	out := make([]Setting, 0, len(sc.Settings))
	for _, name := range sc.Settings {
		s, err := ParseSetting(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
