package harness

import (
	"fmt"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/scenario"
	"taopt/internal/tools"
)

// LoadApp generates one campaign app: an inline scenario app if the
// campaign carries one under that name, the catalog app otherwise.
func (c *Campaign) LoadApp(name string) (*app.App, error) {
	if sa, ok := c.cfg.ScenarioApps[name]; ok {
		return sa.Generate(), nil
	}
	return apps.Load(name)
}

// shareApp is LoadApp for the campaign's own cells: a catalog app comes
// from apps.Share, so overlapping runs of it (in this campaign or any other)
// read one generated copy, and the caller must call release once its runs
// are done. An inline scenario app's name is no catalog identity, so it is
// generated afresh and its release is a no-op.
func (c *Campaign) shareApp(name string) (aut *app.App, release func(), err error) {
	if sa, ok := c.cfg.ScenarioApps[name]; ok {
		return sa.Generate(), func() {}, nil
	}
	return apps.Share(name)
}

// appHash is the scenario hash stamped into the exports of name's cells.
func (c *Campaign) appHash(name string) string {
	if sa, ok := c.cfg.ScenarioApps[name]; ok {
		return sa.Hash
	}
	return apps.Hash(name)
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

// CheckRunScenario reports why the harness cannot run rs — an unknown
// catalog app, tool or setting — without generating the app, so the
// campaign service can reject a bad submit before it is queued.
func CheckRunScenario(rs *scenario.RunSpec) error {
	if rs.App == nil {
		if _, err := apps.Lookup(rs.AppName); err != nil {
			return err
		}
	}
	if _, err := tools.New(rs.Tool, 0); err != nil {
		return err
	}
	_, err := ParseSetting(rs.Setting)
	return err
}

// FromRunScenario lowers a compiled run scenario onto a RunConfig whose app
// the caller owns. The app resolves like a campaign cell — generated from
// the inline spec, or loaded from the catalog — and the export's
// scenario_hash names the app document either way, so a lowered run is
// indistinguishable from the equivalent `taopt -scenario` invocation.
// Absent scenario fields stay zero for the usual Run defaults; anything
// CheckRunScenario rejects is an error.
func FromRunScenario(rs *scenario.RunSpec) (RunConfig, error) {
	cfg, _, err := lowerRunScenario(rs, func(name string) (*app.App, func(), error) {
		aut, err := apps.Load(name)
		return aut, func() {}, err
	})
	return cfg, err
}

// ShareRunScenario is FromRunScenario for the campaign service's computes,
// which overlap: a catalog app comes from apps.Share, so concurrent runs of
// one app read one generated copy, and the caller calls release once it is
// done with the RunConfig and the run's result. An inline app is generated
// afresh and its release is a no-op.
func ShareRunScenario(rs *scenario.RunSpec) (RunConfig, func(), error) {
	return lowerRunScenario(rs, apps.Share)
}

func lowerRunScenario(rs *scenario.RunSpec, catalog func(string) (*app.App, func(), error)) (RunConfig, func(), error) {
	if err := CheckRunScenario(rs); err != nil {
		return RunConfig{}, nil, err
	}
	setting, _ := ParseSetting(rs.Setting) // checked above
	cfg := RunConfig{
		Tool:          rs.Tool,
		Setting:       setting,
		Instances:     rs.Instances,
		Duration:      rs.Duration,
		MachineBudget: rs.MachineBudget,
		SampleEvery:   rs.SampleEvery,
		Seed:          rs.Seed,
		Telemetry:     rs.Telemetry,
	}
	if rs.Faults != nil {
		f := *rs.Faults
		cfg.Faults = &f
	}
	if rs.App != nil {
		cfg.App = rs.App.Generate()
		cfg.ScenarioHash = rs.App.Hash
		return cfg, func() {}, nil
	}
	aut, release, err := catalog(rs.AppName)
	if err != nil {
		return RunConfig{}, nil, err
	}
	cfg.App = aut
	cfg.ScenarioHash = apps.Hash(rs.AppName)
	return cfg, release, nil
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
