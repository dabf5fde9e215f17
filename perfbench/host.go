package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the machine record every result carries, so figures from
// different hosts are never compared by mistake.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMiB returns the process's resident-set high-water mark in MiB, or
// 0 if /proc does not give it.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssEvery is how often sampleRSS reads the resident set size.
const rssEvery = 50 * time.Millisecond

// sampleRSS appends the process's resident set size in MiB to *mib every
// rssEvery until the returned stop function is called; stop returns once
// the sampler has exited, so *mib is safe to read after it. A failed read
// skips its sample.
func sampleRSS(mib *[]float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				// statm's second field is the resident set in pages.
				data, err := os.ReadFile("/proc/self/statm")
				if err != nil {
					continue
				}
				if f := strings.Fields(string(data)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						*mib = append(*mib, pages*float64(os.Getpagesize())/(1<<20))
					}
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// runtimeSnap is the runtime/metrics counters the traced run differences
// across a phase.
type runtimeSnap struct {
	gcCPU, assistCPU, totalCPU, idleCPU, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readRuntime forces a collection first: the runtime folds CPU-class time
// into these counters only at GC boundaries.
func readRuntime() runtimeSnap {
	runtime.GC()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{gcCPU: v(0), assistCPU: v(1), totalCPU: v(2), idleCPU: v(3), allocBytes: v(4)}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		gcCPU: a.gcCPU - b.gcCPU, assistCPU: a.assistCPU - b.assistCPU,
		totalCPU: a.totalCPU - b.totalCPU, idleCPU: a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}

// gcFraction is GC CPU over busy (non-idle) CPU.
func (a runtimeSnap) gcFraction() float64 {
	busy := a.totalCPU - a.idleCPU
	if busy <= 0 {
		return 0
	}
	return a.gcCPU / busy
}
