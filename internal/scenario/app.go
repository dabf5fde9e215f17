package scenario

import (
	"encoding/json"
	"fmt"

	"taopt/internal/app"
)

// App is a compiled app scenario: the fully resolved generator spec plus the
// catalog's login gate.
type App struct {
	Spec app.Spec
	// Login mirrors Table 3's asterisk: the app requires a login to access
	// most features (the harness auto-logs in, as the paper does).
	Login bool
	// Hash is the canonical hash of the scenario document that defined the
	// app — for an inline app, the enclosing campaign document.
	Hash string
}

// Generate builds the app the spec describes (deterministic in the spec).
func (a *App) Generate() *app.App { return app.Generate(a.Spec) }

// appSpecJSON is the payload of an app-kind document: every app.Spec knob
// plus the login gate. Pointer fields distinguish "absent, use the generator
// default" from an explicit value; explicit zeros are rejected by validation
// because app.Spec treats zero as "default" and could not honor them.
type appSpecJSON struct {
	Version   *string `json:"version"`
	Category  *string `json:"category"`
	Downloads *string `json:"downloads"`
	Seed      *int64  `json:"seed"`
	Login     *bool   `json:"login"`

	Subspaces          *int     `json:"subspaces"`
	ScreensMin         *int     `json:"screensMin"`
	ScreensMax         *int     `json:"screensMax"`
	WidgetsMin         *int     `json:"widgetsMin"`
	WidgetsMax         *int     `json:"widgetsMax"`
	ActivitiesMin      *int     `json:"activitiesMin"`
	ActivitiesMax      *int     `json:"activitiesMax"`
	SharedActivityProb *float64 `json:"sharedActivityProb"`
	CrossProb          *float64 `json:"crossProb"`
	ExitProb           *float64 `json:"exitProb"`
	LayerWidth         *int     `json:"layerWidth"`

	VisitMethodsMin  *int `json:"visitMethodsMin"`
	VisitMethodsMax  *int `json:"visitMethodsMax"`
	WidgetMethodsMin *int `json:"widgetMethodsMin"`
	WidgetMethodsMax *int `json:"widgetMethodsMax"`
	ExtraMethods     *int `json:"extraMethods"`

	CrashSites   *int     `json:"crashSites"`
	CrashProbMin *float64 `json:"crashProbMin"`
	CrashProbMax *float64 `json:"crashProbMax"`

	VolatileTextProb *float64 `json:"volatileTextProb"`
	DecorationsMax   *int     `json:"decorationsMax"`
}

func compileAppV1(doc *Document) (*App, []Issue) {
	a, issues := compileAppBody(doc.Name, doc.Body, "$."+bodyKey(KindApp))
	if len(issues) > 0 {
		return nil, issues
	}
	a.Hash = doc.Hash
	return a, nil
}

// compileAppBody compiles one app payload (shared with campaign inline
// apps): overrides applied onto app.DefaultSpec, exactly as the hard-coded
// catalog built its entries, so a round-tripped catalog app is byte-identical.
func compileAppBody(name string, body map[string]json.RawMessage, path string) (*App, []Issue) {
	var j appSpecJSON
	issues := decodeFields(path, body, &j)

	checkPos := func(field string, v *int) {
		if v != nil && *v < 1 {
			issues = append(issues, Issue{path + "." + field, fmt.Sprintf("must be at least 1, got %d (omit the field for the generator default)", *v)})
		}
	}
	checkProb := func(field string, v *float64) {
		if v != nil && (*v <= 0 || *v > 1) {
			issues = append(issues, Issue{path + "." + field, fmt.Sprintf("must be in (0, 1], got %g (omit the field for the generator default)", *v)})
		}
	}
	checkStr := func(field string, v *string) {
		if v != nil && *v == "" {
			issues = append(issues, Issue{path + "." + field, "must be non-empty (omit the field for the generator default)"})
		}
	}
	checkStr("version", j.Version)
	checkStr("category", j.Category)
	checkStr("downloads", j.Downloads)
	checkPos("subspaces", j.Subspaces)
	checkPos("screensMin", j.ScreensMin)
	checkPos("screensMax", j.ScreensMax)
	checkPos("widgetsMin", j.WidgetsMin)
	checkPos("widgetsMax", j.WidgetsMax)
	checkPos("activitiesMin", j.ActivitiesMin)
	checkPos("activitiesMax", j.ActivitiesMax)
	checkProb("sharedActivityProb", j.SharedActivityProb)
	checkProb("crossProb", j.CrossProb)
	checkProb("exitProb", j.ExitProb)
	checkPos("layerWidth", j.LayerWidth)
	checkPos("visitMethodsMin", j.VisitMethodsMin)
	checkPos("visitMethodsMax", j.VisitMethodsMax)
	checkPos("widgetMethodsMin", j.WidgetMethodsMin)
	checkPos("widgetMethodsMax", j.WidgetMethodsMax)
	checkPos("extraMethods", j.ExtraMethods)
	checkPos("crashSites", j.CrashSites)
	checkProb("crashProbMin", j.CrashProbMin)
	checkProb("crashProbMax", j.CrashProbMax)
	checkProb("volatileTextProb", j.VolatileTextProb)
	checkPos("decorationsMax", j.DecorationsMax)

	spec := buildSpec(name, j)
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
	return &App{Spec: spec, Login: spec.LoginRequired}, nil
}

// buildSpec resolves the payload onto app.DefaultSpec: absent fields keep
// the generator default, and an absent seed derives from the name exactly as
// the catalog always has (app.SeedFor).
func buildSpec(name string, j appSpecJSON) app.Spec {
	seed := app.SeedFor(name)
	if j.Seed != nil {
		seed = *j.Seed
	}
	s := app.DefaultSpec(name, seed)
	if j.Version != nil {
		s.Version = *j.Version
	}
	if j.Category != nil {
		s.Category = *j.Category
	}
	if j.Downloads != nil {
		s.Downloads = *j.Downloads
	}
	if j.Subspaces != nil {
		s.Subspaces = *j.Subspaces
	}
	if j.ScreensMin != nil {
		s.ScreensMin = *j.ScreensMin
	}
	if j.ScreensMax != nil {
		s.ScreensMax = *j.ScreensMax
	}
	if j.WidgetsMin != nil {
		s.WidgetsMin = *j.WidgetsMin
	}
	if j.WidgetsMax != nil {
		s.WidgetsMax = *j.WidgetsMax
	}
	if j.ActivitiesMin != nil {
		s.ActivitiesMin = *j.ActivitiesMin
	}
	if j.ActivitiesMax != nil {
		s.ActivitiesMax = *j.ActivitiesMax
	}
	if j.SharedActivityProb != nil {
		s.SharedActivityProb = *j.SharedActivityProb
	}
	if j.CrossProb != nil {
		s.CrossProb = *j.CrossProb
	}
	if j.ExitProb != nil {
		s.ExitProb = *j.ExitProb
	}
	if j.LayerWidth != nil {
		s.LayerWidth = *j.LayerWidth
	}
	if j.VisitMethodsMin != nil {
		s.VisitMethodsMin = *j.VisitMethodsMin
	}
	if j.VisitMethodsMax != nil {
		s.VisitMethodsMax = *j.VisitMethodsMax
	}
	if j.WidgetMethodsMin != nil {
		s.WidgetMethodsMin = *j.WidgetMethodsMin
	}
	if j.WidgetMethodsMax != nil {
		s.WidgetMethodsMax = *j.WidgetMethodsMax
	}
	if j.ExtraMethods != nil {
		s.ExtraMethods = *j.ExtraMethods
	}
	if j.CrashSites != nil {
		s.CrashSites = *j.CrashSites
	}
	if j.CrashProbMin != nil {
		s.CrashProbMin = *j.CrashProbMin
	}
	if j.CrashProbMax != nil {
		s.CrashProbMax = *j.CrashProbMax
	}
	if j.VolatileTextProb != nil {
		s.VolatileTextProb = *j.VolatileTextProb
	}
	if j.DecorationsMax != nil {
		s.DecorationsMax = *j.DecorationsMax
	}
	if j.Login != nil {
		s.LoginRequired = *j.Login
	}
	return s
}

// appDoc is the emitted form of an app scenario: every knob explicit, so an
// emitted file is self-contained and compile∘emit is a fixed point.
type appDoc struct {
	SchemaVersion int        `json:"schemaVersion"`
	Kind          string     `json:"kind"`
	Name          string     `json:"name"`
	App           appDocSpec `json:"app"`
}

type appDocSpec struct {
	Version   string `json:"version"`
	Category  string `json:"category"`
	Downloads string `json:"downloads"`
	Seed      int64  `json:"seed"`
	Login     bool   `json:"login"`

	Subspaces          int     `json:"subspaces"`
	ScreensMin         int     `json:"screensMin"`
	ScreensMax         int     `json:"screensMax"`
	WidgetsMin         int     `json:"widgetsMin"`
	WidgetsMax         int     `json:"widgetsMax"`
	ActivitiesMin      int     `json:"activitiesMin"`
	ActivitiesMax      int     `json:"activitiesMax"`
	SharedActivityProb float64 `json:"sharedActivityProb"`
	CrossProb          float64 `json:"crossProb"`
	ExitProb           float64 `json:"exitProb"`
	LayerWidth         int     `json:"layerWidth"`

	VisitMethodsMin  int `json:"visitMethodsMin"`
	VisitMethodsMax  int `json:"visitMethodsMax"`
	WidgetMethodsMin int `json:"widgetMethodsMin"`
	WidgetMethodsMax int `json:"widgetMethodsMax"`
	ExtraMethods     int `json:"extraMethods"`

	CrashSites   int     `json:"crashSites"`
	CrashProbMin float64 `json:"crashProbMin"`
	CrashProbMax float64 `json:"crashProbMax"`

	VolatileTextProb float64 `json:"volatileTextProb"`
	DecorationsMax   int     `json:"decorationsMax"`
}

// EmitApp round-trips a compiled app back out as a scenario file: a version-1
// app document with every generator knob written explicitly. Compiling the
// emitted bytes yields an identical App (the fuzz target pins this), which is
// how the 18 catalog files were generated from the pre-refactor hard-coded
// entries.
func EmitApp(a *App) ([]byte, error) {
	s := a.Spec
	doc := appDoc{
		SchemaVersion: CurrentVersion,
		Kind:          KindApp,
		Name:          s.Name,
		App: appDocSpec{
			Version:            s.Version,
			Category:           s.Category,
			Downloads:          s.Downloads,
			Seed:               s.Seed,
			Login:              a.Login,
			Subspaces:          s.Subspaces,
			ScreensMin:         s.ScreensMin,
			ScreensMax:         s.ScreensMax,
			WidgetsMin:         s.WidgetsMin,
			WidgetsMax:         s.WidgetsMax,
			ActivitiesMin:      s.ActivitiesMin,
			ActivitiesMax:      s.ActivitiesMax,
			SharedActivityProb: s.SharedActivityProb,
			CrossProb:          s.CrossProb,
			ExitProb:           s.ExitProb,
			LayerWidth:         s.LayerWidth,
			VisitMethodsMin:    s.VisitMethodsMin,
			VisitMethodsMax:    s.VisitMethodsMax,
			WidgetMethodsMin:   s.WidgetMethodsMin,
			WidgetMethodsMax:   s.WidgetMethodsMax,
			ExtraMethods:       s.ExtraMethods,
			CrashSites:         s.CrashSites,
			CrashProbMin:       s.CrashProbMin,
			CrashProbMax:       s.CrashProbMax,
			VolatileTextProb:   s.VolatileTextProb,
			DecorationsMax:     s.DecorationsMax,
		},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: emitting app %q: %w", s.Name, err)
	}
	return append(out, '\n'), nil
}
