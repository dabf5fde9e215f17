package main

import (
	"io/fs"
	"math"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageLayerCoversModule walks the module's source tree: every package
// outside cmd/, examples/ and this benchmark must map to a known layer, and
// every mapping must name a package that exists.
func TestPackageLayerCoversModule(t *testing.T) {
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	found := make(map[string]bool)
	root := ".."
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			switch {
			case rel == ".":
			case strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				rel == "cmd", rel == "examples", rel == "perfbench", rel == "scripts":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		found[path.Join("taopt", filepath.ToSlash(filepath.Dir(rel)))] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found["taopt/internal/service"] {
		t.Fatalf("walk found no internal packages: %v", found)
	}
	for pkg := range found {
		l, ok := packageLayer[path.Clean(pkg)]
		if !ok {
			t.Errorf("package %s has no layer in packageLayer", pkg)
		} else if !known[l] {
			t.Errorf("package %s maps to unknown layer %q", pkg, l)
		}
	}
	for pkg := range packageLayer {
		if !found[pkg] {
			t.Errorf("packageLayer names %s, which has no non-test Go files", pkg)
		}
	}
}

func TestStackLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"taopt/internal/app.(*App).Render", "taopt/internal/harness.Run"}, "app"},
		{[]string{"fmt.(*pp).doPrintf", "fmt.Sprintf", "taopt/internal/app.(*builder).newMethods"}, "app"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "taopt/internal/ui.Abstract"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "taopt/internal/trace/bin.(*Writer).Event"}, "trace/bin"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"taopt/internal/harness/fleet.call[go.shape.struct { main.sum *taopt/internal/harness.CellSummary }]"}, "harness/fleet"},
		{[]string{"crypto/sha256.block", "main.sum", "main.(*serviceState).do"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldListing(t *testing.T) {
	listing := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      50ms   taopt/internal/app.(*App).Render
             taopt/internal/harness.Run
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             taopt/internal/core.(*Analyzer).Observe
-----------+-------------------------------------------------------
      0.02s   runtime.nextFreeFast (inline)
             runtime.mallocgc
-----------+-------------------------------------------------------
`
	shares, total, err := fold(listing)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-0.1) > 1e-12 {
		t.Errorf("total = %g s, want 0.1", total)
	}
	want := map[string]float64{"app": 0.5, "runtime_gc": 0.5, "core": 0}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", l, shares[l], w)
		}
	}
	if _, _, err := fold("File: x\n"); err == nil {
		t.Errorf("folding a listing without samples should fail")
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.5s": 1.5, "250us": 250e-6, "2min": 120, "0": 0} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}
