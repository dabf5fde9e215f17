package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

func compileFaults(t *testing.T, body string) (*FaultPlan, []Issue) {
	t.Helper()
	fp, err := CompileFaultPlan([]byte(`{"kind": "fault-plan", "name": "K", "faults": ` + body + `}`))
	if err == nil {
		return fp, nil
	}
	inv, ok := err.(*InvalidError)
	if !ok {
		t.Fatalf("%s: want *InvalidError, got %T: %v", body, err, err)
	}
	return nil, inv.Issues
}

// TestFaultKnobValidation checks every fault-plan knob of faultSpecJSON:
// a rate outside [0, 1] or a negative seconds count (the members named
// *Sec) is one issue at its path, a mistyped member is "want a number", and
// a valid value lands in the faults.Config field of the same name (without
// the Sec suffix) and nowhere else.
func TestFaultKnobValidation(t *testing.T) {
	st := reflect.TypeOf(faultSpecJSON{})
	knobs := 0
	for i := 0; i < st.NumField(); i++ {
		tag := jsonTag(st.Field(i))
		if tag == "context" {
			continue
		}
		knobs++
		path := "$.faults." + tag
		sec := strings.HasSuffix(tag, "Sec")
		cases := [][2]string{{"-0.1", "must be in [0, 1], got -0.1"}, {"1.5", "must be in [0, 1], got 1.5"}}
		if sec {
			cases = [][2]string{{"-1", "must be >= 0 seconds, got -1"}}
		}
		for _, c := range cases {
			_, got := compileFaults(t, `{"`+tag+`": `+c[0]+`}`)
			// Cross-field min/max conflicts are checked separately; drop them.
			got = slices.DeleteFunc(got, func(is Issue) bool { return strings.Contains(is.Msg, " exceeds ") })
			if want := []Issue{{path, c[1]}}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s=%s: issues %v, want %v", tag, c[0], got, want)
			}
		}
		// A mistyped knob is its one issue: for a lifetime bound, the 0 it
		// decodes to is never compared against the other bound.
		_, got := compileFaults(t, `{"`+tag+`": "x"}`)
		if want := []Issue{{path, "want a number"}}; !reflect.DeepEqual(got, want) {
			t.Errorf(`%s="x": issues %v, want %v`, tag, got, want)
		}

		if tag == "failureRate" {
			continue // it scales the defaults (TestCompileFaultPlanDefaults)
		}
		val, want := "0.5", reflect.ValueOf(0.5)
		if sec {
			val, want = "200", reflect.ValueOf(200*sim.Duration(1e9))
		}
		fp, issues := compileFaults(t, `{"`+tag+`": `+val+`}`)
		if len(issues) > 0 {
			t.Fatalf("%s=%s: %v", tag, val, issues)
		}
		field := strings.ToUpper(tag[:1]) + strings.TrimSuffix(tag[1:], "Sec")
		cfg, base := reflect.ValueOf(fp.Config), reflect.ValueOf(faults.DefaultConfig(0))
		for j := 0; j < cfg.NumField(); j++ {
			name := cfg.Type().Field(j).Name
			if name == "Context" {
				continue
			}
			if name == field {
				if !cfg.Field(j).Equal(want) {
					t.Errorf("%s=%s: Config.%s = %v, want %v", tag, val, name, cfg.Field(j), want)
				}
			} else if !cfg.Field(j).Equal(base.Field(j)) {
				t.Errorf("%s=%s: Config.%s = %v changed from the default %v", tag, val, name, cfg.Field(j), base.Field(j))
			}
		}
	}
	if knobs != 10 {
		t.Fatalf("checked %d knobs, want 10", knobs)
	}

	// Range issues come in field order, then the cross-field check.
	_, got := compileFaults(t, `{"cmdLossRate": 2, "minLifeSec": 600, "maxLifeSec": 60, "failureRate": -1}`)
	want := []Issue{
		{"$.faults.failureRate", "must be in [0, 1], got -1"},
		{"$.faults.cmdLossRate", "must be in [0, 1], got 2"},
		{"$.faults.minLifeSec", "minLifeSec (10m0s) exceeds maxLifeSec (1m0s)"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("issues %v, want %v", got, want)
	}
}
