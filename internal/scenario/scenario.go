// Package scenario is the data layer of the evaluation surface: a versioned
// JSON format describing synthetic apps, fault plans and whole campaigns,
// compiled into the repo's own config types, one compiler per (kind,
// schemaVersion) pair.
//
// A scenario document is a small envelope around one kind-specific payload:
//
//	{
//	  "schemaVersion": 1,
//	  "kind": "app" | "fault-plan" | "campaign" | "run",
//	  "name": "...",
//	  "<kind's payload key>": { ... }
//	}
//
// Three properties define the format:
//
//   - Versioned, strictly. schemaVersion selects the compiler for the
//     document's kind; an unknown (kind, version) pair is an error,
//     never a best-effort parse. A document that omits schemaVersion means
//     version 1 — the defaulting is strict in that nothing else is inferred.
//   - Closed. Unknown fields are rejected at every nesting level, so a typo
//     ("screenMax") fails loudly instead of silently meaning the default.
//   - Exhaustively validated. Validation reports every problem in one pass as
//     an InvalidError carrying JSON-path-located issues, not just the first.
//
// Every successfully parsed document also gets a canonical content hash
// (CanonicalHash): the cache key for compiled scenarios, stamped into run
// exports so a result file names the exact scenario that produced it.
//
// Layering: scenario compiles data into app, faults and sim types only. It
// must never import device, bus or harness — the harness lowers compiled
// campaigns onto its own config types, not the other way around (enforced by
// taoptvet's buslayer table).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// CurrentVersion is the schema version this package writes and the one an
// envelope without schemaVersion means.
const CurrentVersion = 1

// Document kinds.
const (
	KindApp       = "app"
	KindFaultPlan = "fault-plan"
	KindCampaign  = "campaign"
	KindRun       = "run"
)

// bodyKey returns the envelope key holding a kind's payload ("" for an
// unknown kind).
func bodyKey(kind string) string {
	switch kind {
	case KindApp:
		return "app"
	case KindFaultPlan:
		return "faults"
	case KindCampaign:
		return "campaign"
	case KindRun:
		return "run"
	}
	return ""
}

// Issue is one validation finding, located by a JSON path rooted at "$".
type Issue struct {
	Path string
	Msg  string
}

func (i Issue) String() string { return i.Path + ": " + i.Msg }

// InvalidError reports every validation failure of one document in source
// order (envelope first, then payload fields, then unknown keys).
type InvalidError struct {
	Issues []Issue
}

func (e *InvalidError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: invalid document (%d issue", len(e.Issues))
	if len(e.Issues) != 1 {
		b.WriteByte('s')
	}
	b.WriteByte(')')
	for _, is := range e.Issues {
		b.WriteString("\n  ")
		b.WriteString(is.String())
	}
	return b.String()
}

// Document is a decoded scenario envelope whose payload has not been
// compiled yet.
type Document struct {
	SchemaVersion int
	Kind          string
	Name          string
	// Body is the kind-specific payload object, keyed by member name.
	Body map[string]json.RawMessage
	// Hash is the canonical content hash of the source document.
	Hash string
}

// Decode parses and validates a scenario envelope. Malformed JSON is a plain
// error; a well-formed document with envelope problems returns an
// *InvalidError listing all of them.
func Decode(data []byte) (*Document, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var top map[string]json.RawMessage
	if err := dec.Decode(&top); err != nil {
		return nil, fmt.Errorf("scenario: parsing document: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parsing document: trailing data after the envelope")
	}
	hash, err := CanonicalHash(data)
	if err != nil {
		return nil, err
	}

	doc := &Document{SchemaVersion: CurrentVersion, Hash: hash}
	var issues []Issue

	if raw, ok := top["schemaVersion"]; ok {
		var v int
		if err := json.Unmarshal(raw, &v); err != nil {
			issues = append(issues, Issue{"$.schemaVersion", "want an integer"})
		} else if v < 1 {
			issues = append(issues, Issue{"$.schemaVersion", fmt.Sprintf("must be >= 1, got %d", v)})
		} else {
			doc.SchemaVersion = v
		}
	}
	if raw, ok := top["kind"]; !ok {
		issues = append(issues, Issue{"$.kind", "required"})
	} else if err := json.Unmarshal(raw, &doc.Kind); err != nil {
		issues = append(issues, Issue{"$.kind", "want a string"})
	} else if bodyKey(doc.Kind) == "" {
		issues = append(issues, Issue{"$.kind", fmt.Sprintf("unknown kind %q (want %s, %s, %s, or %s)", doc.Kind, KindApp, KindFaultPlan, KindCampaign, KindRun)})
		doc.Kind = ""
	}
	if raw, ok := top["name"]; !ok {
		issues = append(issues, Issue{"$.name", "required"})
	} else if err := json.Unmarshal(raw, &doc.Name); err != nil {
		issues = append(issues, Issue{"$.name", "want a string"})
	} else if doc.Name == "" {
		issues = append(issues, Issue{"$.name", "must be non-empty"})
	}

	allowed := map[string]bool{"schemaVersion": true, "kind": true, "name": true}
	if key := bodyKey(doc.Kind); key != "" {
		allowed[key] = true
		if raw, ok := top[key]; !ok {
			issues = append(issues, Issue{"$." + key, "required"})
		} else if err := json.Unmarshal(raw, &doc.Body); err != nil {
			issues = append(issues, Issue{"$." + key, "want an object"})
		}
	}
	for _, key := range sortedKeys(top) {
		if !allowed[key] {
			issues = append(issues, Issue{"$." + key, "unknown field"})
		}
	}

	if len(issues) > 0 {
		return nil, &InvalidError{Issues: issues}
	}
	return doc, nil
}

// Compiled is the result of compiling one scenario document: exactly one of
// App, FaultPlan, Campaign and Run is non-nil, matching Kind.
type Compiled struct {
	Kind    string
	Version int
	Name    string
	// Hash is the canonical content hash of the source document.
	Hash string

	App       *App
	FaultPlan *FaultPlan
	Campaign  *Campaign
	Run       *RunSpec
}

// compilers lists the (kind, version) pairs Compile knows, for its error
// message. A new schema version adds a case beside the old one, so old
// files keep compiling.
const compilers = "app/v1, campaign/v1, fault-plan/v1, run/v1"

// Compile decodes data and runs the compiler for its (kind, schemaVersion)
// pair. Validation failures return an *InvalidError listing every issue
// with its JSON path.
func Compile(data []byte) (*Compiled, error) {
	doc, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if doc.SchemaVersion != 1 {
		return nil, fmt.Errorf("scenario: no compiler registered for kind %q version %d (registered: %s)",
			doc.Kind, doc.SchemaVersion, compilers)
	}
	out := &Compiled{Kind: doc.Kind, Version: doc.SchemaVersion, Name: doc.Name, Hash: doc.Hash}
	var issues []Issue
	switch doc.Kind { // Decode admits only these kinds
	case KindApp:
		out.App, issues = compileAppV1(doc)
	case KindFaultPlan:
		out.FaultPlan, issues = compileFaultPlanV1(doc)
	case KindCampaign:
		out.Campaign, issues = compileCampaignV1(doc)
	case KindRun:
		out.Run, issues = compileRunV1(doc)
	}
	if len(issues) > 0 {
		return nil, &InvalidError{Issues: issues}
	}
	if out.Run != nil {
		// The cache key of the campaign service: the document's canonical
		// hash with the name removed, so renaming a run does not defeat the
		// run store. Stamped here because only Compile holds the raw bytes.
		if out.Run.ConfigHash, err = CanonicalHashExcluding(data, "name"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CompileApp compiles data, requiring an app-kind document.
func CompileApp(data []byte) (*App, error) {
	c, err := Compile(data)
	if err != nil {
		return nil, err
	}
	if c.App == nil {
		return nil, fmt.Errorf("scenario: document %q is a %s scenario, want %s", c.Name, c.Kind, KindApp)
	}
	return c.App, nil
}

// CompileFaultPlan compiles data, requiring a fault-plan-kind document.
func CompileFaultPlan(data []byte) (*FaultPlan, error) {
	c, err := Compile(data)
	if err != nil {
		return nil, err
	}
	if c.FaultPlan == nil {
		return nil, fmt.Errorf("scenario: document %q is a %s scenario, want %s", c.Name, c.Kind, KindFaultPlan)
	}
	return c.FaultPlan, nil
}

// CompileCampaign compiles data, requiring a campaign-kind document.
func CompileCampaign(data []byte) (*Campaign, error) {
	c, err := Compile(data)
	if err != nil {
		return nil, err
	}
	if c.Campaign == nil {
		return nil, fmt.Errorf("scenario: document %q is a %s scenario, want %s", c.Name, c.Kind, KindCampaign)
	}
	return c.Campaign, nil
}
