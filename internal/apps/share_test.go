package apps

import (
	"reflect"
	"sync"
	"testing"

	"taopt/internal/app"
)

// registered reports how many apps the Share registry holds and how many
// holders the named one has.
func registered(name string) (apps, users int) {
	shared.Lock()
	defer shared.Unlock()
	if s := shared.m[name]; s != nil {
		users = s.users
	}
	return len(shared.m), users
}

func mustShare(t *testing.T, name string) (*app.App, func()) {
	t.Helper()
	a, release, err := Share(name)
	if err != nil {
		t.Fatal(err)
	}
	return a, release
}

func TestShareOverlappingHoldersGetOneApp(t *testing.T) {
	const name = "Filters For Selfie"
	a, releaseA := mustShare(t, name)
	b, releaseB := mustShare(t, name)
	if a != b {
		t.Fatal("overlapping Share calls returned different apps")
	}
	if n, users := registered(name); n != 1 || users != 2 {
		t.Fatalf("registry holds %d apps, %q has %d users; want 1 and 2", n, name, users)
	}
	if !reflect.DeepEqual(a, MustLoad(name)) {
		t.Fatal("shared app differs from a fresh Load")
	}
	releaseA()
	if _, users := registered(name); users != 1 {
		t.Fatalf("after one release %q has %d users, want 1", name, users)
	}
	releaseB()
	if n, _ := registered(name); n != 0 {
		t.Fatalf("registry holds %d apps after the last release, want 0", n)
	}
	c, releaseC := mustShare(t, name)
	defer releaseC()
	if c == a {
		t.Fatal("Share after the last release returned the dropped app")
	}
}

func TestShareSecondReleaseIsNoOp(t *testing.T) {
	const name = "Marvel Comics"
	_, releaseA := mustShare(t, name)
	_, releaseB := mustShare(t, name)
	releaseA()
	releaseA()
	if _, users := registered(name); users != 1 {
		t.Fatalf("a repeated release dropped another holder: %q has %d users, want 1", name, users)
	}
	releaseB()
	releaseB()
	if n, _ := registered(name); n != 0 {
		t.Fatalf("registry holds %d apps after the last release, want 0", n)
	}
}

func TestShareUnknownNameRegistersNothing(t *testing.T) {
	before, _ := registered("NopeApp")
	a, release, err := Share("NopeApp")
	if err == nil || a != nil || release != nil {
		t.Fatalf("Share(unknown) = %v, %v, %v; want nil, nil and an error", a, release != nil, err)
	}
	if _, lerr := Lookup("NopeApp"); err.Error() != lerr.Error() {
		t.Fatalf("Share error %q, want Lookup's %q", err, lerr)
	}
	if n, _ := registered("NopeApp"); n != before {
		t.Fatalf("registry holds %d apps after an unknown name, want %d", n, before)
	}
}

// TestShareConcurrentHolders interleaves Share and release across goroutines
// and apps; under -race it checks the registry's locking and that every
// holder sees a fully generated app.
func TestShareConcurrentHolders(t *testing.T) {
	names := []string{"Filters For Selfie", "Marvel Comics"}
	want := make(map[string]int)
	for _, name := range names {
		want[name] = MustLoad(name).MethodCount()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := names[(g+i)%len(names)]
				a, release, err := Share(name)
				if err != nil {
					t.Error(err)
					return
				}
				if got := a.MethodCount(); got != want[name] {
					t.Errorf("%s: shared app has %d methods, want %d", name, got, want[name])
				}
				release()
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		if _, users := registered(name); users != 0 {
			t.Fatalf("%s has %d users after every holder released, want 0", name, users)
		}
	}
}
