package scenario

import (
	"encoding/json"
	"fmt"

	"taopt/internal/faults"
	"taopt/internal/sim"
)

// Campaign is a compiled campaign scenario: the grid of apps × tools ×
// settings with its budget, cadence and fault plan. Empty Apps, Tools or
// Settings mean "the runner decides" — a partial campaign (for example one
// that only carries a fault grid) composes with command-line flags.
type Campaign struct {
	Name string
	// Apps are catalog references; InlineApps are defined in the document
	// itself. A runner treats their union as the campaign's app axis.
	Apps       []string
	InlineApps []App
	Tools      []string
	Settings   []string
	// Instances, Duration, SampleEvery, Workers and Seed are zero when the
	// document omitted them (the runner's defaults apply).
	Instances   int
	Duration    sim.Duration
	SampleEvery sim.Duration
	Workers     int
	Seed        int64
	// Faults is the single fault plan applied to every cell (nil when
	// absent); FaultGrid is a set of named variants to sweep instead. A
	// document may set at most one of the two.
	Faults    *faults.Config
	FaultGrid []FaultPlan
	// Hash is the canonical hash of the campaign document.
	Hash string
}

// campaignJSON is the payload of a campaign document.
type campaignJSON struct {
	Apps           []string          `json:"apps"`
	InlineApps     []json.RawMessage `json:"inlineApps"`
	Tools          []string          `json:"tools"`
	Settings       []string          `json:"settings"`
	Instances      *int              `json:"instances"`
	DurationMin    *float64          `json:"durationMin"`
	SampleEverySec *float64          `json:"sampleEverySec"`
	Workers        *int              `json:"workers"`
	Seed           *int64            `json:"seed"`
	Faults         json.RawMessage   `json:"faults"`
	FaultGrid      []json.RawMessage `json:"faultGrid"`
}

// SettingNames lists the parallelization settings a campaign document may
// name, in harness.Setting order. The list lives here because scenario sits
// below the harness in the layer order; the harness names its settings from
// it (harness.Setting.String, harness.ParseSetting).
func SettingNames() []string {
	return []string{"baseline", "taopt-duration", "taopt-resource", "activity-partition", "single-long", "pats"}
}

func compileCampaignV1(doc *Document) (*Campaign, []Issue) {
	path := "$." + bodyKey(KindCampaign)
	var j campaignJSON
	issues := decodeFields(path, doc.Body, &j)
	c := &Campaign{Name: doc.Name}

	seen := map[string]string{}
	checkDup := func(issuePath, name string) {
		if prev, dup := seen[name]; dup {
			issues = append(issues, Issue{issuePath, fmt.Sprintf("duplicate app %q (already at %s)", name, prev)})
		} else {
			seen[name] = issuePath
		}
	}
	for i, name := range j.Apps {
		p := fmt.Sprintf("%s.apps[%d]", path, i)
		if name == "" {
			issues = append(issues, Issue{p, "must be non-empty"})
			continue
		}
		checkDup(p, name)
		c.Apps = append(c.Apps, name)
	}
	for i, raw := range j.InlineApps {
		p := fmt.Sprintf("%s.inlineApps[%d]", path, i)
		name, body, elemIssues := decodeNamedObject(p, raw, "app")
		if len(elemIssues) > 0 {
			issues = append(issues, elemIssues...)
			continue
		}
		checkDup(p, name)
		a, appIssues := compileAppBody(name, body, p+".app")
		if len(appIssues) > 0 {
			issues = append(issues, appIssues...)
			continue
		}
		a.Hash = doc.Hash
		c.InlineApps = append(c.InlineApps, *a)
	}

	for i, tool := range j.Tools {
		if tool == "" {
			issues = append(issues, Issue{fmt.Sprintf("%s.tools[%d]", path, i), "must be non-empty"})
			continue
		}
		c.Tools = append(c.Tools, tool)
	}
	for i, s := range j.Settings {
		if knownSetting(&issues, fmt.Sprintf("%s.settings[%d]", path, i), s) {
			c.Settings = append(c.Settings, s)
		}
	}

	c.Instances = countField(&issues, path+".instances", j.Instances)
	c.Duration = durationField(&issues, path+".durationMin", j.DurationMin, "minutes", 60e9)
	c.SampleEvery = durationField(&issues, path+".sampleEverySec", j.SampleEverySec, "seconds", 1e9)
	c.Workers = countField(&issues, path+".workers", j.Workers)
	if j.Seed != nil {
		c.Seed = *j.Seed
	}

	if j.Faults != nil && j.FaultGrid != nil {
		issues = append(issues, Issue{path + ".faults", "cannot combine with faultGrid (pick one)"})
	}
	c.Faults = faultsField(&issues, path+".faults", doc.Name, j.Faults)
	gridSeen := map[string]string{}
	for i, raw := range j.FaultGrid {
		p := fmt.Sprintf("%s.faultGrid[%d]", path, i)
		name, body, elemIssues := decodeNamedObject(p, raw, "faults")
		if len(elemIssues) > 0 {
			issues = append(issues, elemIssues...)
			continue
		}
		if prev, dup := gridSeen[name]; dup {
			issues = append(issues, Issue{p, fmt.Sprintf("duplicate fault-grid variant %q (already at %s)", name, prev)})
			continue
		}
		gridSeen[name] = p
		fp, fpIssues := compileFaultBody(name, body, p+".faults")
		if len(fpIssues) > 0 {
			issues = append(issues, fpIssues...)
			continue
		}
		fp.Hash = doc.Hash
		c.FaultGrid = append(c.FaultGrid, *fp)
	}

	if len(issues) > 0 {
		return nil, issues
	}
	c.Hash = doc.Hash
	return c, nil
}

// decodeNamedObject decodes one {"name": ..., "<key>": {...}} array element
// (the shape of inlineApps and faultGrid entries), rejecting unknown members.
func decodeNamedObject(path string, raw json.RawMessage, key string) (name string, body map[string]json.RawMessage, issues []Issue) {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(raw, &members); err != nil {
		return "", nil, []Issue{{path, "want an object"}}
	}
	if rawName, ok := members["name"]; !ok {
		issues = append(issues, Issue{path + ".name", "required"})
	} else if err := json.Unmarshal(rawName, &name); err != nil {
		issues = append(issues, Issue{path + ".name", "want a string"})
	} else if name == "" {
		issues = append(issues, Issue{path + ".name", "must be non-empty"})
	}
	if rawBody, ok := members[key]; !ok {
		issues = append(issues, Issue{path + "." + key, "required"})
	} else if err := json.Unmarshal(rawBody, &body); err != nil {
		issues = append(issues, Issue{path + "." + key, "want an object"})
	}
	for _, k := range sortedKeys(members) {
		if k != "name" && k != key {
			issues = append(issues, Issue{path + "." + k, "unknown field"})
		}
	}
	return name, body, issues
}
