package harness

import (
	"fmt"
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/core"
	"taopt/internal/sim"
)

// TestSettingTable pins what each run setting is: its name and Tables 4–6
// column label, its coordinator mode, the strategy it runs and the budget
// newRunner gives it, for 5 instances of 60 minutes and the default machine
// budget (5 × 60 minutes).
func TestSettingTable(t *testing.T) {
	const hour = 60 * minute
	type limits struct {
		wall, machine sim.Duration
		devices       int
	}
	none := core.Mode(-1)
	rows := []struct {
		setting  Setting
		name     string
		label    string
		mode     core.Mode
		strategy string
		limits   limits
	}{
		{BaselineParallel, "baseline", "Base", none, "*harness.uncoordinated", limits{hour, 0, 5}},
		{TaOPTDuration, "taopt-duration", "TaOPT(D)", core.DurationConstrained, "*harness.taopt", limits{hour, 0, 5}},
		{TaOPTResource, "taopt-resource", "TaOPT(R)", core.ResourceConstrained, "*harness.taopt", limits{10 * hour, 5 * hour, 5}},
		{ActivityPartition, "activity-partition", "activity-partition", none, "*harness.activityPartition", limits{hour, 0, 5}},
		{SingleLong, "single-long", "single-long", none, "*harness.uncoordinated", limits{5 * hour, 0, 1}},
		{PATSMasterSlave, "pats", "pats", none, "*harness.pats", limits{hour, 0, 5}},
	}
	for i, row := range rows {
		s := row.setting
		if int(s) != i {
			t.Fatalf("row %d pins setting %d", i, s)
		}
		if s.String() != row.name || s.Label() != row.label {
			t.Errorf("setting %d: name %q label %q, want %q %q", s, s.String(), s.Label(), row.name, row.label)
		}
		if parsed, err := ParseSetting(row.name); err != nil || parsed != s {
			t.Errorf("ParseSetting(%q) = %d, %v", row.name, parsed, err)
		}
		mode, ok := s.Mode()
		if !ok {
			mode = none
		}
		if mode != row.mode {
			t.Errorf("%s: mode %d, want %d", s, mode, row.mode)
		}
		r := newRunner(RunConfig{
			App: app.MotivatingExample(), Tool: "monkey", Setting: s,
			Instances: 5, Duration: hour,
		}.withDefaults())
		if got := fmt.Sprintf("%T", r.strategy); got != row.strategy {
			t.Errorf("%s: strategy %s, want %s", s, got, row.strategy)
		}
		if (r.coord != nil) != ok {
			t.Errorf("%s: coordinator built = %v, want %v", s, r.coord != nil, ok)
		}
		if got := (limits{r.wallDeadline, r.machineBudget, r.farm.MaxDevices()}); got != row.limits {
			t.Errorf("%s: wall deadline, machine budget, devices = %v, want %v", s, got, row.limits)
		}
	}
	if last := rows[len(rows)-1].setting; Setting(int(last)+1).String() != "unknown-setting" {
		t.Errorf("setting %d past the table has a name", last+1)
	}
}

// TestRunRejectsUnknownSetting: a Setting outside the table is an error
// from Run, like an unknown tool, not a panic mid-setup.
func TestRunRejectsUnknownSetting(t *testing.T) {
	for _, s := range []Setting{-1, PATSMasterSlave + 1, 42} {
		_, err := Run(RunConfig{App: app.MotivatingExample(), Tool: "monkey", Setting: s})
		if err == nil || !strings.Contains(err.Error(), "unknown setting") {
			t.Errorf("Run(Setting(%d)) error = %v, want an unknown-setting error", s, err)
		}
	}
}
