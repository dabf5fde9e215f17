package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

// decodeFields unmarshals raw's members into dst's matching fields (matched
// by json tag; dst is a pointer to a struct). An absent or null member
// leaves its field as dst had it: nil for a pointer field, so the caller can
// tell it from an explicit zero, or a value field's default. A mistyped
// scalar member leaves its field zero, as json leaves a mistyped pointer
// member pointing at a zero, so a range check reports it too. It reports
// every type mismatch and every unknown key as an issue under path, never
// stopping at the first — the all-errors contract of the package.
func decodeFields(path string, raw map[string]json.RawMessage, dst any) []Issue {
	var issues []Issue
	v := reflect.ValueOf(dst).Elem()
	t := v.Type()
	known := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		tag := jsonTag(t.Field(i))
		if tag == "" {
			continue
		}
		known[tag] = true
		rawVal, ok := raw[tag]
		if !ok {
			continue
		}
		f := v.Field(i)
		if err := json.Unmarshal(rawVal, f.Addr().Interface()); err != nil {
			issues = append(issues, Issue{path + "." + tag, "want " + wantType(t.Field(i).Type)})
			if k := f.Kind(); k != reflect.Pointer && k != reflect.Slice {
				f.SetZero()
			}
		}
	}
	var unknown []string
	for k := range raw {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	for _, k := range unknown {
		issues = append(issues, Issue{path + "." + k, "unknown field"})
	}
	return issues
}

// jsonTag returns the json member name of one struct field ("" to skip).
func jsonTag(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag == "" || tag == "-" {
		return ""
	}
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	return tag
}

// wantType names the JSON type a struct field expects, for issue messages.
func wantType(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Bool:
		return "a boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "an integer"
	case reflect.Float32, reflect.Float64:
		return "a number"
	case reflect.String:
		return "a string"
	case reflect.Slice, reflect.Array:
		return "an array"
	case reflect.Map, reflect.Struct:
		return "an object"
	default:
		return "a " + t.Kind().String()
	}
}

// sortedKeys returns a raw object's member names in sorted order, so issue
// lists and other derived output never depend on map iteration order.
func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The checks below are shared by the run and campaign compilers. Each
// appends its issue to *issues and returns the compiled value, or the zero
// value when the member is absent (the harness default applies) or invalid.

// countField checks an optional count member (instances, workers): at
// least 1.
func countField(issues *[]Issue, path string, v *int) int {
	if v == nil {
		return 0
	}
	if *v < 1 {
		*issues = append(*issues, Issue{path, fmt.Sprintf("must be at least 1, got %d (omit the field for the harness default)", *v)})
		return 0
	}
	return *v
}

// durationField checks an optional duration member written in unit
// ("minutes" or "seconds", nsPerUnit nanoseconds each): more than zero.
func durationField(issues *[]Issue, path string, v *float64, unit string, nsPerUnit float64) sim.Duration {
	if v == nil {
		return 0
	}
	if *v <= 0 {
		*issues = append(*issues, Issue{path, fmt.Sprintf("must be > 0 %s, got %g (omit the field for the harness default)", unit, *v)})
		return 0
	}
	return sim.Duration(*v * nsPerUnit)
}

// faultsField compiles an optional inline fault-plan member named name.
func faultsField(issues *[]Issue, path, name string, raw json.RawMessage) *faults.Config {
	if raw == nil {
		return nil
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(raw, &body); err != nil {
		*issues = append(*issues, Issue{path, "want an object"})
		return nil
	}
	fp, fpIssues := compileFaultBody(name, body, path)
	if len(fpIssues) > 0 {
		*issues = append(*issues, fpIssues...)
		return nil
	}
	return &fp.Config
}

// knownSetting reports whether s is one of SettingNames.
func knownSetting(issues *[]Issue, path, s string) bool {
	if slices.Contains(SettingNames(), s) {
		return true
	}
	*issues = append(*issues, Issue{path, fmt.Sprintf("unknown setting %q (want one of: %v)", s, SettingNames())})
	return false
}
