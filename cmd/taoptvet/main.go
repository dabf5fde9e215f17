// Command taoptvet runs the repository's determinism, layering, enum and
// allocation analyzers (internal/lint) over Go packages: walltime,
// globalrand, maporder, buslayer, exhaustive, sentinelerr, hotalloc and
// layercover. It is the enforcement half of the determinism contract in
// DESIGN.md §10 — the goldens tell you *that* a run stopped being
// reproducible, taoptvet tells you *which statement* broke it.
//
// Usage (also what CI and make lint run):
//
//	go run ./cmd/taoptvet ./...
//
// Findings print as file:line:col: analyzer: message; -json switches to a
// machine-readable findings array for CI artifacts, -list prints the
// analyzer roster, and -allows audits every //lint:allow suppression in the
// tree. A justified //lint:allow <analyzer> "why" comment on the offending
// line (or the line above) suppresses a finding; the justification string
// is mandatory. On whole-module runs (the default ./... pattern) taoptvet
// also fails on layer rules whose package tree no longer exists. taoptvet
// exits 0 when the tree is clean and nonzero otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"taopt/internal/cli"
	"taopt/internal/lint"
)

// jsonFinding is the -json wire shape of one finding, position split out so
// CI tooling can annotate files without re-parsing the text form.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	fatalf := cli.Fatalf("taoptvet")

	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	allows := flag.Bool("allows", false, "audit //lint:allow suppressions instead of reporting findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: taoptvet [-json] [-list] [-allows] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers(lint.DefaultConfig()) {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	cfg := lint.DefaultConfig()
	if *listOnly {
		for _, a := range lint.Analyzers(cfg) {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	wholeModule := len(patterns) == 0
	if wholeModule {
		patterns = []string{"./..."}
	}

	root, err := lint.ModuleRoot(".")
	if err != nil {
		fatalf("%v", err)
	}
	loader := lint.NewLoader(root)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatalf("%v", err)
	}

	if *allows {
		auditAllows(pkgs, *jsonOut, fatalf)
		return
	}

	findings, err := lint.Analyze(pkgs, lint.Analyzers(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	if wholeModule {
		// The per-package layercover pass cannot see rules whose whole tree
		// vanished; the module-wide view can.
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		stale := lint.StaleLayerRules(cfg, paths)
		for _, msg := range stale {
			fmt.Fprintf(os.Stderr, "taoptvet: %s\n", msg)
		}
		if len(stale) > 0 {
			os.Exit(1)
		}
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer, File: f.Pos.Filename,
				Line: f.Pos.Line, Col: f.Pos.Column, Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "taoptvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// auditAllows lists every //lint:allow directive in the loaded packages —
// the standing exceptions to the contract — and fails on malformed ones.
func auditAllows(pkgs []*lint.Package, jsonOut bool, fatalf func(string, ...any)) {
	allows, malformed := lint.ModuleAllows(pkgs)
	if jsonOut {
		type jsonAllow struct {
			Analyzer      string `json:"analyzer"`
			File          string `json:"file"`
			Line          int    `json:"line"`
			Justification string `json:"justification"`
		}
		out := make([]jsonAllow, 0, len(allows))
		for _, a := range allows {
			out = append(out, jsonAllow{
				Analyzer: a.Analyzer, File: a.Pos.Filename,
				Line: a.Pos.Line, Justification: a.Justification,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, a := range allows {
			fmt.Printf("%s:%d: %s %q\n", a.Pos.Filename, a.Pos.Line, a.Analyzer, a.Justification)
		}
	}
	for _, f := range malformed {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(malformed) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "taoptvet: %d suppression(s) in %d package(s)\n", len(allows), len(pkgs))
}
