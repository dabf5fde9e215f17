package harness

import (
	"fmt"
	"strings"

	"taopt/internal/core"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// Setting selects the parallelization setting of a run (Section 6.1 plus the
// preliminary-study baselines). What a setting is — its label, coordinator
// mode, budget rule and strategy — is its row of the settings table.
type Setting int

// Run settings.
const (
	// BaselineParallel runs d_max uncoordinated instances for l_p each,
	// differing only in random seeds (the paper's baseline).
	BaselineParallel Setting = iota
	// TaOPTDuration is TaOPT's duration-constrained mode.
	TaOPTDuration
	// TaOPTResource is TaOPT's resource-constrained mode.
	TaOPTResource
	// ActivityPartition is the ParaAim-style activity-granularity baseline
	// of RQ2.
	ActivityPartition
	// SingleLong runs one instance for the whole machine-time budget
	// (the RQ4 non-parallel comparison).
	SingleLong
	// PATSMasterSlave is the PATS-style master–slave baseline of Wen et
	// al. [67] (Section 9's other related-work comparison).
	PATSMasterSlave
)

// settingRow states one setting once; settingTable holds a row per
// Setting.
type settingRow struct {
	// label is the Tables 4–6 column label; "" prints the name.
	label string
	// coordinated rows run TaOPT's coordinator in mode.
	coordinated bool
	mode        core.Mode
	// limits is the budget rule: the wall deadline, the machine budget
	// (0 = none) and the device count of a run.
	limits   func(c RunConfig) (wall, machine sim.Duration, devices int)
	strategy func(r *runner) strategy
}

var settingTable = [...]settingRow{
	BaselineParallel:  {label: "Base", limits: wallLimits, strategy: newUncoordinated},
	TaOPTDuration:     {label: "TaOPT(D)", coordinated: true, mode: core.DurationConstrained, limits: wallLimits, strategy: newTaOPT},
	TaOPTResource:     {label: "TaOPT(R)", coordinated: true, mode: core.ResourceConstrained, limits: machineLimits, strategy: newTaOPT},
	ActivityPartition: {limits: wallLimits, strategy: newActivityPartition},
	SingleLong:        {limits: singleLimits, strategy: newUncoordinated},
	PATSMasterSlave:   {limits: wallLimits, strategy: newPATS},
}

// wallLimits runs d_max instances until the wall deadline l_p.
func wallLimits(c RunConfig) (sim.Duration, sim.Duration, int) { return c.Duration, 0, c.Instances }

// machineLimits spends the machine budget on up to d_max instances. The wall
// cap only stops a degenerate run from spinning forever: with at least one
// instance active, wall time can never exceed the machine budget, and idle
// gaps only ever shorten the run.
func machineLimits(c RunConfig) (sim.Duration, sim.Duration, int) {
	return 2 * c.MachineBudget, c.MachineBudget, c.Instances
}

// singleLimits runs one instance for the machine budget as wall time.
func singleLimits(c RunConfig) (sim.Duration, sim.Duration, int) { return c.MachineBudget, 0, 1 }

// settingNames are the settings' names, indexed by Setting.
var settingNames = scenario.SettingNames()

func (s Setting) valid() bool { return s >= 0 && int(s) < len(settingTable) }

// ParseSetting resolves a setting name as printed by Setting.String —
// the vocabulary scenario campaign files and the -setting flag share.
func ParseSetting(name string) (Setting, error) {
	for s, n := range settingNames {
		if n == name {
			return Setting(s), nil
		}
	}
	return 0, fmt.Errorf("harness: unknown setting %q (want one of: %s)", name, strings.Join(settingNames, ", "))
}

func (s Setting) String() string {
	if !s.valid() {
		return "unknown-setting"
	}
	return settingNames[s]
}

// Label is the setting's column label in Tables 4–6: TaOPT's modes and the
// baseline they are measured against are abbreviated, the comparison
// baselines print their name.
func (s Setting) Label() string {
	if s.valid() && settingTable[s].label != "" {
		return settingTable[s].label
	}
	return s.String()
}

// Mode is the coordinator mode of a TaOPT setting; ok is false for the
// uncoordinated settings.
func (s Setting) Mode() (mode core.Mode, ok bool) {
	if !s.valid() {
		return 0, false
	}
	return settingTable[s].mode, settingTable[s].coordinated
}
