package main

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on shares its memory system with other
// machines' work, and the work it gets done per CPU-second drifts by tens of
// percent over minutes. Untraced runs therefore measure the host's current
// speed with a fixed reference kernel and report times rescaled to a
// reference host, on which the kernel runs refNominal rounds per second.

// refNominal is the reference kernel's rate, in rounds per second on one
// goroutine per CPU, that defines the reference host: about its median on
// the 2-vCPU Xeon the benchmark was tuned on.
const refNominal = 1200.0

// calibDuration is how long one speed measurement runs the kernel.
const calibDuration = 250 * time.Millisecond

// refSink keeps the kernel's result alive.
var refSink atomic.Int64

// refRound is one round of the reference kernel: it builds a few thousand
// small string-keyed nodes, indexes them in a map and sorts their keys. This
// is the allocation- and pointer-heavy mix the simulator and the codecs
// spend their time on, so a neighbour that slows one slows the other. It
// never changes with the program under test.
func refRound() int {
	type node struct {
		key  string
		kids []*node
		vals map[string]int
	}
	root := &node{vals: make(map[string]int)}
	for i := 0; i < 2000; i++ {
		n := &node{key: "k" + strconv.Itoa(i*7919%2000), vals: make(map[string]int, 1)}
		n.vals[n.key] = i
		root.kids = append(root.kids, n)
		root.vals[n.key] += i
	}
	keys := make([]string, 0, len(root.kids))
	for _, k := range root.kids {
		keys = append(keys, k.key)
	}
	sort.Strings(keys)
	return len(keys[0]) + len(root.vals)
}

// calibrate runs the reference kernel on `workers` goroutines for d and
// returns its rate in rounds per second.
func calibrate(workers int, d time.Duration) float64 {
	var rounds atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, s := 0, 0
			for time.Now().Before(end) {
				s += refRound()
				n++
			}
			rounds.Add(int64(n))
			refSink.Add(int64(s))
		}()
	}
	wg.Wait()
	return float64(rounds.Load()) / time.Since(start).Seconds()
}

// hostSpeed measures the host's current speed relative to the reference
// host: the kernel's rate over refNominal. The kernel runs in a fresh copy
// of this program, so the workload's heap, goroutines and GC state do not
// change what it measures.
func hostSpeed() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "-calibrate", calibDuration.String()).Output()
	if err != nil {
		return 0, fmt.Errorf("host speed: %w", err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || rate <= 0 {
		return 0, fmt.Errorf("host speed: bad kernel rate %q", out)
	}
	return rate / refNominal, nil
}

// speedTrack measures the host between the parts of a run: each part is
// rescaled by the mean of the measurements just before and just after it.
type speedTrack struct {
	last    float64
	factors []float64 // one per part, in order
}

func newSpeedTrack() (*speedTrack, error) {
	s, err := hostSpeed()
	return &speedTrack{last: s}, err
}

// next measures the host after a part has ended and returns that part's
// factor.
func (t *speedTrack) next() (float64, error) {
	s, err := hostSpeed()
	if err != nil {
		return 0, err
	}
	f := (t.last + s) / 2
	t.last = s
	t.factors = append(t.factors, f)
	return f, nil
}
