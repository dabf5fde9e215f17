// Package apps is the evaluation-subject catalog: 18 synthetic apps standing
// in for the 18 highly popular industrial apps of Table 3. Each entry keeps
// the paper's app name, version, category, download band and login
// requirement, and calibrates the generator so the apps' relative method
// universes track the magnitudes of Table 4 (small apps around a few
// thousand methods, Zedge the largest at ~90k).
//
// The entries live as embedded scenario documents under scenarios/ — one
// versioned JSON file per app, compiled at init through internal/scenario.
// A differential test pins the compiled catalog byte-identical to the
// hard-coded table the files were generated from, and each entry carries its
// document's canonical hash, which the harness stamps into run exports.
package apps

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"

	"taopt/internal/app"
	"taopt/internal/scenario"
)

//go:embed scenarios/*.json
var scenarioFS embed.FS

// Entry describes one evaluation app.
type Entry struct {
	// Spec is the entry's generator spec; Spec.LoginRequired is Table 3's
	// login asterisk.
	Spec app.Spec
	// Hash is the canonical content hash of the entry's scenario document.
	Hash string
}

// catalog holds the compiled entries in embedded-file (alphabetical) order.
var catalog []Entry

func init() {
	files, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		panic(fmt.Sprintf("apps: reading embedded scenarios: %v", err))
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name() < files[j].Name() })
	for _, f := range files {
		data, err := scenarioFS.ReadFile("scenarios/" + f.Name())
		if err != nil {
			panic(fmt.Sprintf("apps: reading %s: %v", f.Name(), err))
		}
		a, err := scenario.CompileApp(data)
		if err != nil {
			panic(fmt.Sprintf("apps: compiling %s: %v", f.Name(), err))
		}
		catalog = append(catalog, Entry{Spec: a.Spec, Hash: a.Hash})
	}
}

// Names returns the catalog's app names in Table 3 (alphabetical) order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.Spec.Name
	}
	sort.Strings(out)
	return out
}

// Entries returns the catalog in alphabetical order.
func Entries() []Entry {
	out := append([]Entry(nil), catalog...)
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Lookup returns the named catalog entry without generating the app.
func Lookup(name string) (Entry, error) {
	for _, e := range catalog {
		if e.Spec.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("apps: unknown app %q (available: %s)", name, strings.Join(Names(), ", "))
}

// Hash returns the canonical scenario hash of the named catalog app ("" for
// an unknown name).
func Hash(name string) string {
	for _, e := range catalog {
		if e.Spec.Name == name {
			return e.Hash
		}
	}
	return ""
}

// Load generates the named evaluation app, a fresh copy the caller owns
// (Share hands out one copy to overlapping holders instead). Generation is
// deterministic, so repeated loads return structurally identical apps.
func Load(name string) (*app.App, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return app.Generate(e.Spec), nil
}

// shared is the share-while-in-use registry behind Share: one entry per
// catalog app that at least one holder has not released yet.
var shared = struct {
	sync.Mutex
	m map[string]*sharedApp
}{m: make(map[string]*sharedApp)}

type sharedApp struct {
	once  sync.Once
	app   *app.App
	users int
}

// Share returns the named evaluation app shared with every other holder
// whose share overlaps this one, and the func that releases the share. The
// first holder generates the app (outside the registry lock, so different
// apps generate in parallel); the last release drops it, so no app outlives
// its holders and a later Share generates it afresh. Holders must only read
// the app. Releasing twice is a no-op. An unknown name registers nothing.
func Share(name string) (*app.App, func(), error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	shared.Lock()
	s := shared.m[name]
	if s == nil {
		s = &sharedApp{}
		shared.m[name] = s
	}
	s.users++
	shared.Unlock()
	s.once.Do(func() { s.app = app.Generate(e.Spec) })
	var released sync.Once
	return s.app, func() {
		released.Do(func() {
			shared.Lock()
			defer shared.Unlock()
			if s.users--; s.users == 0 {
				delete(shared.m, name)
			}
		})
	}, nil
}

// MustLoad is Load for static names.
func MustLoad(name string) *app.App {
	a, err := Load(name)
	if err != nil {
		panic(err)
	}
	return a
}
