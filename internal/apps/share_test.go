package apps

import (
	"reflect"
	"sync"
	"testing"

	"taopt/internal/app"
)

// registered reports how many apps the Share registry holds and how many
// holders spec's app has.
func registered(spec app.Spec) (apps, users int) {
	shared.Lock()
	defer shared.Unlock()
	if s := shared.m[spec]; s != nil {
		users = s.users
	}
	return len(shared.m), users
}

func catalogSpec(t *testing.T, name string) app.Spec {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Spec
}

func TestShareOverlappingHoldersGetOneApp(t *testing.T) {
	const name = "Filters For Selfie"
	spec := catalogSpec(t, name)
	a, releaseA := Share(spec)
	b, releaseB := Share(spec)
	if a != b {
		t.Fatal("overlapping Share calls returned different apps")
	}
	if n, users := registered(spec); n != 1 || users != 2 {
		t.Fatalf("registry holds %d apps, %q has %d users; want 1 and 2", n, name, users)
	}
	if !reflect.DeepEqual(a, MustLoad(name)) {
		t.Fatal("shared app differs from a fresh Load")
	}
	releaseA()
	if _, users := registered(spec); users != 1 {
		t.Fatalf("after one release %q has %d users, want 1", name, users)
	}
	releaseB()
	if n, _ := registered(spec); n != 0 {
		t.Fatalf("registry holds %d apps after the last release, want 0", n)
	}
	c, releaseC := Share(spec)
	defer releaseC()
	if c == a {
		t.Fatal("Share after the last release returned the dropped app")
	}
}

func TestShareSecondReleaseIsNoOp(t *testing.T) {
	const name = "Marvel Comics"
	spec := catalogSpec(t, name)
	_, releaseA := Share(spec)
	_, releaseB := Share(spec)
	releaseA()
	releaseA()
	if _, users := registered(spec); users != 1 {
		t.Fatalf("a repeated release dropped another holder: %q has %d users, want 1", name, users)
	}
	releaseB()
	releaseB()
	if n, _ := registered(spec); n != 0 {
		t.Fatalf("registry holds %d apps after the last release, want 0", n)
	}
}

// Specs compare by value: two specs with one name but different knobs are
// two apps, each with its own holder.
func TestShareKeysBySpecNotName(t *testing.T) {
	spec := catalogSpec(t, "Filters For Selfie")
	other := spec
	other.CrashSites++
	a, releaseA := Share(spec)
	defer releaseA()
	b, releaseB := Share(other)
	defer releaseB()
	if a == b {
		t.Fatal("specs that differ in a knob share one app")
	}
	if _, users := registered(spec); users != 1 {
		t.Fatalf("the catalog spec has %d users, want 1", users)
	}
	if !reflect.DeepEqual(b, app.Generate(other)) {
		t.Fatal("the second spec's app is not generated from it")
	}
}

// TestShareConcurrentHolders interleaves Share and release across goroutines
// and apps; under -race it checks the registry's locking and that every
// holder sees a fully generated app.
func TestShareConcurrentHolders(t *testing.T) {
	names := []string{"Filters For Selfie", "Marvel Comics"}
	want := make(map[string]int)
	specs := make(map[string]app.Spec)
	for _, name := range names {
		want[name] = MustLoad(name).MethodCount()
		specs[name] = catalogSpec(t, name)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := names[(g+i)%len(names)]
				a, release := Share(specs[name])
				if got := a.MethodCount(); got != want[name] {
					t.Errorf("%s: shared app has %d methods, want %d", name, got, want[name])
				}
				release()
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		if _, users := registered(specs[name]); users != 0 {
			t.Fatalf("%s has %d users after every holder released, want 0", name, users)
		}
	}
}
