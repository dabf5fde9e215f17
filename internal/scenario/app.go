package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"

	"taopt/internal/app"
)

// App is a compiled app scenario: the fully resolved generator spec.
type App struct {
	Spec app.Spec
	// Hash is the canonical hash of the scenario document that defined the
	// app — for an inline app, the enclosing campaign document.
	Hash string
}

// Generate builds the app the spec describes (deterministic in the spec).
func (a *App) Generate() *app.App { return app.Generate(a.Spec) }

func compileAppV1(doc *Document) (*App, []Issue) {
	a, issues := compileAppBody(doc.Name, doc.Body, "$."+bodyKey(KindApp))
	if len(issues) > 0 {
		return nil, issues
	}
	a.Hash = doc.Hash
	return a, nil
}

// compileAppBody compiles one app payload (shared with campaign inline
// apps). The payload is app.Spec's json fields, decoded onto app.DefaultSpec
// exactly as the hard-coded catalog built its entries, so a round-tripped
// catalog app is byte-identical: an absent or null member keeps the
// generator default, and an absent seed derives from the name (app.SeedFor).
func compileAppBody(name string, body map[string]json.RawMessage, path string) (*App, []Issue) {
	spec := app.DefaultSpec(name, app.SeedFor(name))
	issues := decodeFields(path, body, &spec)
	issues = append(issues, checkKnobs(path, spec)...)

	// Cross-field checks run on the resolved spec so a conflict between an
	// explicit value and a defaulted partner is still caught.
	checkOrder := func(minField string, lo, hi int, maxField string) {
		if lo > hi {
			issues = append(issues, Issue{path + "." + minField, fmt.Sprintf("%s (%d) exceeds %s (%d)", minField, lo, maxField, hi)})
		}
	}
	checkOrder("screensMin", spec.ScreensMin, spec.ScreensMax, "screensMax")
	checkOrder("widgetsMin", spec.WidgetsMin, spec.WidgetsMax, "widgetsMax")
	checkOrder("activitiesMin", spec.ActivitiesMin, spec.ActivitiesMax, "activitiesMax")
	checkOrder("visitMethodsMin", spec.VisitMethodsMin, spec.VisitMethodsMax, "visitMethodsMax")
	checkOrder("widgetMethodsMin", spec.WidgetMethodsMin, spec.WidgetMethodsMax, "widgetMethodsMax")
	if spec.CrashProbMin > spec.CrashProbMax {
		issues = append(issues, Issue{path + ".crashProbMin", fmt.Sprintf("crashProbMin (%g) exceeds crashProbMax (%g)", spec.CrashProbMin, spec.CrashProbMax)})
	}
	if len(issues) > 0 {
		return nil, issues
	}
	return &App{Spec: spec}, nil
}

// checkKnobs applies one rule per knob kind to the resolved spec's json
// fields, in field order: every int is at least 1, every float64 is in
// (0, 1], every string is non-empty; the seed and the login gate are free.
// app.Spec treats a zero knob as "default" and could not honor it, so an
// explicit zero is rejected. Every DefaultSpec value passes, so only
// explicit values are ever reported.
func checkKnobs(path string, spec app.Spec) []Issue {
	var issues []Issue
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		tag := jsonTag(v.Type().Field(i))
		if tag == "" {
			continue
		}
		var msg string
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			if f.Int() < 1 {
				msg = fmt.Sprintf("must be at least 1, got %d", f.Int())
			}
		case reflect.Float64:
			if p := f.Float(); p <= 0 || p > 1 {
				msg = fmt.Sprintf("must be in (0, 1], got %g", p)
			}
		case reflect.String:
			if f.String() == "" {
				msg = "must be non-empty"
			}
		}
		if msg != "" {
			issues = append(issues, Issue{path + "." + tag, msg + " (omit the field for the generator default)"})
		}
	}
	return issues
}

// EmitApp round-trips a compiled app back out as a scenario file: a version-1
// app document with every generator knob written explicitly, in app.Spec's
// field order. Compiling the emitted bytes yields an identical App (the fuzz
// target pins this), which is how the 18 catalog files were generated from
// the pre-refactor hard-coded entries.
func EmitApp(a *App) ([]byte, error) {
	doc := struct {
		SchemaVersion int      `json:"schemaVersion"`
		Kind          string   `json:"kind"`
		Name          string   `json:"name"`
		App           app.Spec `json:"app"`
	}{CurrentVersion, KindApp, a.Spec.Name, a.Spec}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: emitting app %q: %w", a.Spec.Name, err)
	}
	return append(out, '\n'), nil
}
