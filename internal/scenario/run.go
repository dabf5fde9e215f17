package scenario

import (
	"encoding/json"
	"fmt"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

// RunSpec is a compiled run scenario: one fully described campaign run — the
// request envelope of the taoptd campaign service and the unit its run store
// caches. A run document names an app (a catalog reference or an inline app
// spec), a tool, a parallelization setting and the run's budgets and seed;
// the harness lowers it onto a RunConfig (harness.FromRunScenario).
type RunSpec struct {
	Name string
	// AppName is a catalog reference; App is an inline app spec. Exactly one
	// is set (the compiler enforces the XOR).
	AppName string
	App     *App
	Tool    string
	Setting string
	// Instances, Duration, MachineBudget, SampleEvery and Seed are zero when
	// the document omitted them (the harness defaults apply), exactly like a
	// campaign document's fields.
	Instances     int
	Duration      sim.Duration
	MachineBudget sim.Duration
	SampleEvery   sim.Duration
	Seed          int64
	// Telemetry asks the run to collect the observability layer's decision
	// log and metrics, which adds the export's telemetry block.
	Telemetry bool
	// Faults is the run's fault plan (nil when absent).
	Faults *faults.Config
	// Hash is the canonical hash of the run document.
	Hash string
	// ConfigHash is the canonical hash of the run document with the name
	// member removed — the cache key of the campaign service's run store.
	// Two documents that differ only in name (or formatting, or member
	// order) describe the same run and share one cached cell; any semantic
	// change produces a new key.
	ConfigHash string
}

// runJSON is the payload of a run document.
type runJSON struct {
	App            *string         `json:"app"`
	InlineApp      json.RawMessage `json:"inlineApp"`
	Tool           *string         `json:"tool"`
	Setting        *string         `json:"setting"`
	Instances      *int            `json:"instances"`
	DurationMin    *float64        `json:"durationMin"`
	BudgetMin      *float64        `json:"budgetMin"`
	SampleEverySec *float64        `json:"sampleEverySec"`
	Seed           *int64          `json:"seed"`
	Telemetry      *bool           `json:"telemetry"`
	Faults         json.RawMessage `json:"faults"`
}

func compileRunV1(doc *Document) (*RunSpec, []Issue) {
	path := "$." + bodyKey(KindRun)
	var j runJSON
	issues := decodeFields(path, doc.Body, &j)
	rs := &RunSpec{Name: doc.Name}

	switch {
	case j.App != nil && j.InlineApp != nil:
		issues = append(issues, Issue{path + ".app", "cannot combine with inlineApp (pick one)"})
	case j.App != nil:
		if *j.App == "" {
			issues = append(issues, Issue{path + ".app", "must be non-empty"})
		} else {
			rs.AppName = *j.App
		}
	case j.InlineApp != nil:
		p := path + ".inlineApp"
		name, body, elemIssues := decodeNamedObject(p, j.InlineApp, "app")
		if len(elemIssues) > 0 {
			issues = append(issues, elemIssues...)
			break
		}
		a, appIssues := compileAppBody(name, body, p+".app")
		if len(appIssues) > 0 {
			issues = append(issues, appIssues...)
			break
		}
		// The inline app hashes as if it had been written as a standalone
		// app document, so a service run of an inline app stamps the same
		// scenario_hash into its export as `taopt -scenario app.json` given
		// the equivalent file — the cache-equivalence oracle relies on it.
		hash, err := inlineAppDocHash(doc.SchemaVersion, name, body)
		if err != nil {
			issues = append(issues, Issue{p, err.Error()})
			break
		}
		a.Hash = hash
		rs.App = a
	default:
		issues = append(issues, Issue{path + ".app", "required (name a catalog app, or define one under inlineApp)"})
	}

	if j.Tool == nil {
		issues = append(issues, Issue{path + ".tool", "required"})
	} else if *j.Tool == "" {
		issues = append(issues, Issue{path + ".tool", "must be non-empty"})
	} else {
		rs.Tool = *j.Tool
	}
	if j.Setting == nil {
		issues = append(issues, Issue{path + ".setting", "required"})
	} else {
		known := false
		for _, s := range SettingNames() {
			if s == *j.Setting {
				known = true
				break
			}
		}
		if !known {
			issues = append(issues, Issue{path + ".setting", fmt.Sprintf("unknown setting %q (want one of: %v)", *j.Setting, SettingNames())})
		} else {
			rs.Setting = *j.Setting
		}
	}

	if j.Instances != nil {
		if *j.Instances < 1 {
			issues = append(issues, Issue{path + ".instances", fmt.Sprintf("must be at least 1, got %d (omit the field for the harness default)", *j.Instances)})
		} else {
			rs.Instances = *j.Instances
		}
	}
	if j.DurationMin != nil {
		if *j.DurationMin <= 0 {
			issues = append(issues, Issue{path + ".durationMin", fmt.Sprintf("must be > 0 minutes, got %g (omit the field for the harness default)", *j.DurationMin)})
		} else {
			rs.Duration = sim.Duration(*j.DurationMin * 60e9)
		}
	}
	if j.BudgetMin != nil {
		if *j.BudgetMin <= 0 {
			issues = append(issues, Issue{path + ".budgetMin", fmt.Sprintf("must be > 0 minutes, got %g (omit the field for the harness default)", *j.BudgetMin)})
		} else {
			rs.MachineBudget = sim.Duration(*j.BudgetMin * 60e9)
		}
	}
	if j.SampleEverySec != nil {
		if *j.SampleEverySec <= 0 {
			issues = append(issues, Issue{path + ".sampleEverySec", fmt.Sprintf("must be > 0 seconds, got %g (omit the field for the harness default)", *j.SampleEverySec)})
		} else {
			rs.SampleEvery = seconds(*j.SampleEverySec)
		}
	}
	if j.Seed != nil {
		rs.Seed = *j.Seed
	}
	if j.Telemetry != nil {
		rs.Telemetry = *j.Telemetry
	}
	if j.Faults != nil {
		p := path + ".faults"
		var body map[string]json.RawMessage
		if err := json.Unmarshal(j.Faults, &body); err != nil {
			issues = append(issues, Issue{p, "want an object"})
		} else if fp, fpIssues := compileFaultBody(doc.Name, body, p); len(fpIssues) > 0 {
			issues = append(issues, fpIssues...)
		} else {
			cfg := fp.Config
			rs.Faults = &cfg
		}
	}

	if len(issues) > 0 {
		return nil, issues
	}
	rs.Hash = doc.Hash
	return rs, nil
}

// inlineAppDocHash reconstructs the standalone app document an inline app is
// shorthand for — the same payload wrapped in its own envelope — and returns
// its canonical hash. Raw payload members are carried verbatim, so number
// spellings survive and the hash matches the equivalent standalone file's.
func inlineAppDocHash(version int, name string, body map[string]json.RawMessage) (string, error) {
	doc, err := json.Marshal(map[string]any{
		"schemaVersion": version,
		"kind":          KindApp,
		"name":          name,
		"app":           body,
	})
	if err != nil {
		return "", fmt.Errorf("reconstructing the standalone app document: %v", err)
	}
	return CanonicalHash(doc)
}

// CompileRun compiles data, requiring a run-kind document. The returned spec
// carries both hashes: Hash names the exact document, ConfigHash (the hash
// with the name removed) is the campaign service's cache key.
func CompileRun(data []byte) (*RunSpec, error) {
	c, err := Compile(data)
	if err != nil {
		return nil, err
	}
	if c.Run == nil {
		return nil, fmt.Errorf("scenario: document %q is a %s scenario, want %s", c.Name, c.Kind, KindRun)
	}
	return c.Run, nil
}
