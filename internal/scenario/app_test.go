package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"taopt/internal/app"
)

// TestAppKnobValidation walks every json-tagged app.Spec field and sets it
// to each value the knob rule must reject: 0 for an int, 0 and 1.5 for a
// float64, "" for a string. Each must yield exactly one range issue, at the
// field's own path, with the message the payload has always carried; a
// knob the rule skipped fails here. A mistyped member reads as zero, so it
// reports the type issue and then the same range issue. The seed and login
// gate accept any value of their type, zero included. (TestCompileAppDefaults
// pins that every default passes: {} compiles to DefaultSpec.)
func TestAppKnobValidation(t *testing.T) {
	const hint = " (omit the field for the generator default)"
	compile := func(tag, val string) []Issue {
		t.Helper()
		_, err := CompileApp([]byte(`{"kind": "app", "name": "K", "app": {"` + tag + `": ` + val + `}}`))
		if err == nil {
			return nil
		}
		inv, ok := err.(*InvalidError)
		if !ok {
			t.Fatalf("%s=%s: want *InvalidError, got %T: %v", tag, val, err, err)
		}
		// Cross-field min/max conflicts are checked separately; drop them.
		return slices.DeleteFunc(inv.Issues, func(is Issue) bool { return strings.Contains(is.Msg, " exceeds ") })
	}
	st := reflect.TypeOf(app.Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		tag := jsonTag(f)
		if tag == "" {
			continue
		}
		path := "$.app." + tag
		var cases [][2]string // {value, message}
		mistyped := `"x"`
		switch f.Type.Kind() {
		case reflect.Int:
			cases = [][2]string{{"0", "must be at least 1, got 0"}}
		case reflect.Float64:
			cases = [][2]string{{"0", "must be in (0, 1], got 0"}, {"1.5", "must be in (0, 1], got 1.5"}}
		case reflect.String:
			cases = [][2]string{{`""`, "must be non-empty"}}
			mistyped = "5"
		case reflect.Int64, reflect.Bool:
			zero := map[reflect.Kind]string{reflect.Int64: "0", reflect.Bool: "false"}[f.Type.Kind()]
			if issues := compile(tag, zero); len(issues) > 0 {
				t.Errorf("%s=%s rejected: %v", tag, zero, issues)
			}
			continue
		default:
			t.Fatalf("app.Spec.%s: no knob rule for kind %s", f.Name, f.Type.Kind())
		}
		for _, c := range cases {
			want := []Issue{{path, c[1] + hint}}
			if got := compile(tag, c[0]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s=%s: issues %v, want %v", tag, c[0], got, want)
			}
		}
		want := []Issue{{path, "want " + wantType(f.Type)}, {path, cases[0][1] + hint}}
		if got := compile(tag, mistyped); !reflect.DeepEqual(got, want) {
			t.Errorf("%s=%s: issues %v, want %v", tag, mistyped, got, want)
		}
	}
}
