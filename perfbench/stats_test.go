package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileHandComputed(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 25, 1.75}, // h = 0.75 between 1 and 2
		{[]float64{4, 1, 3, 2}, 50, 2.5},  // h = 1.5 between 2 and 3
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{10, 20}, 90, 19},       // h = 0.9
		{hundred, 50, 50.5},               // h = 49.5
		{hundred, 99, 99.01},              // h = 98.01
		{[]float64{5, 5, 5, 1000}, 50, 5}, // the median ignores one outlier
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of an empty sample should be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestPhaseWindows(t *testing.T) {
	ph := &phase{windows: []window{
		{dur: 1e9, work: 100, lat: []float64{1, 2, 3}},
		{dur: 2e9, work: 100, lat: []float64{4, 5, 6}},
		{dur: 1e9, work: 300, lat: []float64{7, 8, 9}},
	}}
	if got := ph.rate(); got != 100 { // rates 100, 50, 300
		t.Errorf("rate = %g, want the median window rate 100", got)
	}
	if got := percentile(ph.lat(), 50); got != 5 {
		t.Errorf("median latency = %g, want 5", got)
	}
	if got := ph.work(); got != 500 {
		t.Errorf("work = %g, want 500", got)
	}
}

// TestPhaseAddRescales checks the reference-host rescaling: a part measured
// on a host twice as fast as the reference counts its times double, and a
// part whose digest disagrees with the earlier parts is a failed op.
func TestPhaseAddRescales(t *testing.T) {
	part := func(digest string) *phase {
		return &phase{
			windows: []window{{dur: 1e9, work: 100, lat: []float64{10}}},
			classes: map[string][]float64{"hit": {4}},
			ops:     1, coalesced: 1, digest: digest,
		}
	}
	ph := &phase{}
	ph.add(part("a"), 2)
	ph.add(part("a"), 1)
	if got := ph.windows[0].dur; got != 2e9 {
		t.Errorf("rescaled window = %v, want 2s", got)
	}
	if got := ph.lat(); got[0] != 20 || got[1] != 10 {
		t.Errorf("rescaled latencies = %v, want [20 10]", got)
	}
	if got := ph.classes["hit"]; len(got) != 2 || got[0] != 8 || got[1] != 4 {
		t.Errorf("rescaled hit class = %v, want [8 4]", got)
	}
	if ph.ops != 2 || ph.coalesced != 2 || ph.failed != 0 || ph.digest != "a" {
		t.Errorf("merged phase: ops %d coalesced %d failed %d digest %q", ph.ops, ph.coalesced, ph.failed, ph.digest)
	}
	ph.add(part("b"), 1)
	if ph.failed != 1 {
		t.Errorf("a part with another digest gave %d failed ops, want 1", ph.failed)
	}
}

func TestSampleRSS(t *testing.T) {
	var mib []float64
	stop := sampleRSS(&mib)
	time.Sleep(5 * rssEvery)
	stop()
	if len(mib) == 0 || mib[0] <= 0 {
		t.Errorf("resident set samples %v, want positive ones", mib)
	}
}

func TestCalibrateCountsRounds(t *testing.T) {
	if r := calibrate(2, 20*time.Millisecond); r <= 0 {
		t.Errorf("reference kernel rate %g, want > 0", r)
	}
}
