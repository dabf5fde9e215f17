package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the module names CPU samples fold into: the program's layers,
// the Go runtime's GC and allocator (runtime_gc), the benchmark's own code
// (bench), and everything with no module frame on its stack (other).
var layers = []string{
	"sim", "app", "ui", "toller", "device", "tools", "bus", "core", "graph",
	"coverage", "trace", "trace/bin", "export", "corpus", "scenario",
	"harness", "harness/fleet", "service", "runtime_gc", "bench", "other",
}

// packageLayer maps every package of the module to the layer it belongs to.
// Most layers are one package; the rest join the layer they serve: the app
// catalog generates apps, faults plans what the bus decorator injects, obs
// is the coordinator's decision log, crash dedup is a coverage measure,
// metrics and the root facade are harness bookkeeping, report renders
// exports, and the CLI and lint packages never run inside a campaign.
var packageLayer = map[string]string{
	"taopt":                              "harness",
	"taopt/internal/sim":                 "sim",
	"taopt/internal/app":                 "app",
	"taopt/internal/apps":                "app",
	"taopt/internal/ui":                  "ui",
	"taopt/internal/toller":              "toller",
	"taopt/internal/device":              "device",
	"taopt/internal/tools":               "tools",
	"taopt/internal/bus":                 "bus",
	"taopt/internal/bus/wire":            "bus",
	"taopt/internal/faults":              "bus",
	"taopt/internal/core":                "core",
	"taopt/internal/obs":                 "core",
	"taopt/internal/graph":               "graph",
	"taopt/internal/coverage":            "coverage",
	"taopt/internal/crash":               "coverage",
	"taopt/internal/metrics":             "harness",
	"taopt/internal/trace":               "trace",
	"taopt/internal/trace/bin":           "trace/bin",
	"taopt/internal/export":              "export",
	"taopt/internal/report":              "export",
	"taopt/internal/corpus":              "corpus",
	"taopt/internal/scenario":            "scenario",
	"taopt/internal/harness":             "harness",
	"taopt/internal/harness/fleet":       "harness/fleet",
	"taopt/internal/service":             "service",
	"taopt/internal/service/servicetest": "service",
	"taopt/internal/cli":                 "other",
	"taopt/internal/lint":                "other",
	"taopt/internal/lint/linttest":       "other",
}

// shareMetric is the per-layer metric name of a layer's CPU share.
func shareMetric(layer string) string {
	return "cpu_share." + strings.ReplaceAll(layer, "/", "_")
}

// gcFuncs are the runtime functions whose samples are GC or allocator work.
var gcFuncs = []string{
	"mallocgc", "gcBgMarkWorker", "gcDrain", "gcAssistAlloc", "gcMark",
	"gcStart", "gcSweep", "gcWriteBarrier", "bgsweep", "bgscavenge",
	"sweepone", "scanobject", "scanblock", "scanstack", "greyobject",
	"markroot", "wbBufFlush", "bulkBarrier", "(*mheap)", "(*mcache)",
	"(*mcentral)", "(*gcWork)", "(*gcControllerState)", "(*sweepLocked)",
	"(*mspan)", "(*pageAlloc)", "(*scavengerState)",
}

// funcPackage returns the import path of a symbolized function name such as
// "taopt/internal/app.(*App).Render" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation; its type list may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stackLayer attributes one sample's stack, innermost frame first: GC and
// allocator work below the innermost module frame is runtime_gc, otherwise
// the sample belongs to the innermost module frame's layer.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" {
			name := strings.TrimPrefix(fn, "runtime.")
			for _, g := range gcFuncs {
				if strings.HasPrefix(name, g) {
					return "runtime_gc"
				}
			}
			continue
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		if pkg == "main" {
			return "bench"
		}
	}
	return "other"
}

// fold reads a `go tool pprof -traces` listing and returns each layer's
// share of the sampled CPU time, plus the total sampled time in seconds.
func fold(listing string) (map[string]float64, float64, error) {
	byLayer := make(map[string]float64)
	total := 0.0
	var value float64
	var stack []string
	inBlock := false
	flush := func() {
		if len(stack) > 0 {
			byLayer[stackLayer(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(listing, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			// The block's first line is "<value> <innermost frame>".
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: %w", err)
			}
			value = v
			if len(fields) > 1 {
				stack = append(stack, fields[1])
			}
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = byLayer[l] / total
	}
	return shares, total, nil
}

// parseDuration parses a pprof sample value such as "10ms" or "1.20s" into
// seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"min", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bad sample value %q", s)
			}
			return v * u.scale, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// foldProfile folds a CPU profile file by layer with the local toolchain's
// pprof, so no profile-parsing dependency is needed.
func foldProfile(path string) (map[string]float64, float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, 0, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return fold(string(out))
}
