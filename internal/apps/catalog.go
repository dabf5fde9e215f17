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
// hard-coded table the files were generated from, and each app carries its
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

// catalog holds the compiled apps in embedded-file (alphabetical) order;
// each Spec.LoginRequired is Table 3's login asterisk.
var catalog []scenario.App

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
		catalog = append(catalog, *a)
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
func Entries() []scenario.App {
	out := append([]scenario.App(nil), catalog...)
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Lookup returns the named catalog app's spec and document hash without
// generating the app.
func Lookup(name string) (scenario.App, error) {
	for _, e := range catalog {
		if e.Spec.Name == name {
			return e, nil
		}
	}
	return scenario.App{}, fmt.Errorf("apps: unknown app %q (available: %s)", name, strings.Join(Names(), ", "))
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
// spec that at least one holder has not released yet.
var shared = struct {
	sync.Mutex
	m map[app.Spec]*sharedApp
}{m: make(map[app.Spec]*sharedApp)}

type sharedApp struct {
	once  sync.Once
	app   *app.App
	users int
}

// Share returns the app generated from spec, shared with every other holder
// whose share of an equal spec overlaps this one, and the func that releases
// the share. Specs compare by value, so a catalog app and an inline app with
// every field equal are one app, and two specs that share a name but differ
// in any knob are two. The first holder generates the app (outside the
// registry lock, so different apps generate in parallel); the last release
// drops it, so no app outlives its holders and a later Share generates it
// afresh. Holders must only read the app. Releasing twice is a no-op.
func Share(spec app.Spec) (*app.App, func()) {
	shared.Lock()
	s := shared.m[spec]
	if s == nil {
		s = &sharedApp{}
		shared.m[spec] = s
	}
	s.users++
	shared.Unlock()
	s.once.Do(func() { s.app = app.Generate(spec) })
	var released sync.Once
	return s.app, func() {
		released.Do(func() {
			shared.Lock()
			defer shared.Unlock()
			if s.users--; s.users == 0 {
				delete(shared.m, spec)
			}
		})
	}
}

// MustLoad is Load for static names.
func MustLoad(name string) *app.App {
	a, err := Load(name)
	if err != nil {
		panic(err)
	}
	return a
}
