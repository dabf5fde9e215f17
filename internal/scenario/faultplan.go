package scenario

import (
	"encoding/json"
	"fmt"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

// FaultPlan is a compiled fault-plan scenario: a named faults.Config ready
// to hand to the harness.
type FaultPlan struct {
	Name   string
	Config faults.Config
	// Hash is the canonical hash of the defining document — for a grid
	// variant inside a campaign, the enclosing campaign document.
	Hash string
}

// faultSpecJSON is the payload of a fault-plan document. Rates and fractions
// are probabilities; durations are expressed in seconds of virtual time
// (the format speaks wall-like units, the compiler lowers to sim.Duration).
// Absent fields take the calibrated DefaultConfig(failureRate) values, so a
// one-line {"failureRate": 0.2} plan is the paper's 20% chaos mix.
type faultSpecJSON struct {
	FailureRate      *float64          `json:"failureRate"`
	HangFraction     *float64          `json:"hangFraction"`
	MinLifeSec       *float64          `json:"minLifeSec"`
	MaxLifeSec       *float64          `json:"maxLifeSec"`
	AllocFailRate    *float64          `json:"allocFailRate"`
	AllocOutageSec   *float64          `json:"allocOutageSec"`
	TraceDropRate    *float64          `json:"traceDropRate"`
	TraceDelayRate   *float64          `json:"traceDelayRate"`
	TraceDelayMaxSec *float64          `json:"traceDelayMaxSec"`
	CmdLossRate      *float64          `json:"cmdLossRate"`
	Context          []json.RawMessage `json:"context"`
}

// contextEventJSON is one element of a fault plan's context array.
type contextEventJSON struct {
	Kind        *string  `json:"kind"`
	StartSec    *float64 `json:"startSec"`
	DurationSec *float64 `json:"durationSec"`
	DelaySec    *float64 `json:"delaySec"`
}

func compileFaultPlanV1(doc *Document) (*FaultPlan, []Issue) {
	fp, issues := compileFaultBody(doc.Name, doc.Body, "$."+bodyKey(KindFaultPlan))
	if len(issues) > 0 {
		return nil, issues
	}
	fp.Hash = doc.Hash
	return fp, nil
}

// compileFaultBody compiles one fault-plan payload (shared with campaign
// fault grids).
func compileFaultBody(name string, body map[string]json.RawMessage, path string) (*FaultPlan, []Issue) {
	var j faultSpecJSON
	issues := decodeFields(path, body, &j)

	rate := 0.0
	if j.FailureRate != nil {
		rate = *j.FailureRate
	}
	cfg := faults.DefaultConfig(rate)
	// One row per knob, in field order: a rate lands in a [0, 1] field, a
	// seconds count in a sim.Duration one. Out-of-range values land too, so
	// the min/max check below sees what the document said.
	for _, k := range []struct {
		tag  string
		v    *float64
		rate *float64
		sec  *sim.Duration
	}{
		{"failureRate", j.FailureRate, &cfg.FailureRate, nil},
		{"hangFraction", j.HangFraction, &cfg.HangFraction, nil},
		{"minLifeSec", j.MinLifeSec, nil, &cfg.MinLife},
		{"maxLifeSec", j.MaxLifeSec, nil, &cfg.MaxLife},
		{"allocFailRate", j.AllocFailRate, &cfg.AllocFailRate, nil},
		{"allocOutageSec", j.AllocOutageSec, nil, &cfg.AllocOutage},
		{"traceDropRate", j.TraceDropRate, &cfg.TraceDropRate, nil},
		{"traceDelayRate", j.TraceDelayRate, &cfg.TraceDelayRate, nil},
		{"traceDelayMaxSec", j.TraceDelayMaxSec, nil, &cfg.TraceDelayMax},
		{"cmdLossRate", j.CmdLossRate, &cfg.CmdLossRate, nil},
	} {
		switch {
		case k.v == nil: // absent: the default stands
		case k.sec != nil:
			if *k.v < 0 {
				issues = append(issues, Issue{path + "." + k.tag, fmt.Sprintf("must be >= 0 seconds, got %g", *k.v)})
			}
			*k.sec = seconds(*k.v)
		default:
			if *k.v < 0 || *k.v > 1 {
				issues = append(issues, Issue{path + "." + k.tag, fmt.Sprintf("must be in [0, 1], got %g", *k.v)})
			}
			*k.rate = *k.v
		}
	}
	if cfg.MinLife > cfg.MaxLife {
		issues = append(issues, Issue{path + ".minLifeSec", fmt.Sprintf("minLifeSec (%v) exceeds maxLifeSec (%v)", cfg.MinLife, cfg.MaxLife)})
	}

	for i, raw := range j.Context {
		elemPath := fmt.Sprintf("%s.context[%d]", path, i)
		var members map[string]json.RawMessage
		if err := json.Unmarshal(raw, &members); err != nil {
			issues = append(issues, Issue{elemPath, "want an object"})
			continue
		}
		var ev contextEventJSON
		issues = append(issues, decodeFields(elemPath, members, &ev)...)
		var kind faults.ContextKind
		switch {
		case ev.Kind == nil:
			issues = append(issues, Issue{elemPath + ".kind", "required"})
			continue
		case *ev.Kind == faults.NetworkLoss.String():
			kind = faults.NetworkLoss
		case *ev.Kind == faults.BatteryLow.String():
			kind = faults.BatteryLow
		default:
			issues = append(issues, Issue{elemPath + ".kind", fmt.Sprintf("unknown context kind %q (want %q or %q)", *ev.Kind, faults.NetworkLoss, faults.BatteryLow)})
			continue
		}
		event := faults.ContextEvent{Kind: kind}
		if ev.StartSec == nil {
			issues = append(issues, Issue{elemPath + ".startSec", "required"})
		} else if *ev.StartSec < 0 {
			issues = append(issues, Issue{elemPath + ".startSec", fmt.Sprintf("must be >= 0 seconds, got %g", *ev.StartSec)})
		} else {
			event.Start = seconds(*ev.StartSec)
		}
		if ev.DurationSec == nil {
			issues = append(issues, Issue{elemPath + ".durationSec", "required"})
		} else if *ev.DurationSec <= 0 {
			issues = append(issues, Issue{elemPath + ".durationSec", fmt.Sprintf("must be > 0 seconds, got %g", *ev.DurationSec)})
		} else {
			event.Duration = seconds(*ev.DurationSec)
		}
		switch kind {
		case faults.BatteryLow:
			// Battery-low throttling defaults to a half-second trace delay.
			event.Delay = seconds(0.5)
			if ev.DelaySec != nil {
				if *ev.DelaySec <= 0 {
					issues = append(issues, Issue{elemPath + ".delaySec", fmt.Sprintf("must be > 0 seconds, got %g", *ev.DelaySec)})
				} else {
					event.Delay = seconds(*ev.DelaySec)
				}
			}
		case faults.NetworkLoss:
			if ev.DelaySec != nil {
				issues = append(issues, Issue{elemPath + ".delaySec", fmt.Sprintf("only valid for %q windows", faults.BatteryLow)})
			}
		}
		cfg.Context = append(cfg.Context, event)
	}

	if len(issues) > 0 {
		return nil, issues
	}
	return &FaultPlan{Name: name, Config: cfg}, nil
}

// seconds lowers a seconds count from the format into virtual-clock units.
func seconds(s float64) sim.Duration { return sim.Duration(s * 1e9) }
