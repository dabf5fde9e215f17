package obs

import (
	"fmt"
	"sort"

	"taopt/internal/sim"
)

// Registry is a small, dependency-free metrics registry: named counters,
// gauges, histograms and virtual-time series. It is single-threaded like
// everything on the sim clock — one run owns one registry — and its
// Snapshot is sorted by name, so serialised metrics are deterministic.
//
// All methods are safe on a nil *Registry and do nothing, so producers need
// no telemetry branches.
type Registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Inc adds n to the named counter, creating it at zero on first use.
func (r *Registry) Inc(name string, n int64) {
	if r == nil {
		return
	}
	r.counters[name] += n
}

// SetGauge records the named gauge's current value.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.gauges[name] = v
}

// Observe folds v into the named histogram, creating it with bounds on
// first use (bounds are ignored afterwards; pass the same ones). With no
// bounds the histogram only tracks count/sum/min/max.
func (r *Registry) Observe(name string, v float64, bounds ...float64) {
	if r == nil {
		return
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	h.Observe(v)
}

// Append records one (virtual time, value) sample on the named series.
// Samples must be appended in non-decreasing time order — the run loop's
// natural order.
func (r *Registry) Append(name string, at sim.Duration, v float64) {
	if r == nil {
		return
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	s.Points = append(s.Points, SeriesPoint{AtNS: int64(at), Value: v})
}

// Histogram is a fixed-bound histogram with count/sum/min/max tracking.
// Bucket i counts observations ≤ Bounds[i]; observations above the last
// bound land in the overflow bucket (Counts has len(Bounds)+1 entries).
type Histogram struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram returns a histogram with the given (ascending) bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// Observe folds one value in.
func (h *Histogram) Observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
}

// SeriesPoint is one sample of a virtual-time series.
type SeriesPoint struct {
	AtNS  int64   `json:"at_ns"`
	Value float64 `json:"v"`
}

// Series is an append-only virtual-time series.
type Series struct {
	Points []SeriesPoint
}

// Metric is the serialised form of one registry entry (export format v3's
// telemetry block and the report renderer both consume it).
type Metric struct {
	Name string `json:"name"`
	Type string `json:"type"` // counter | gauge | histogram | series
	// Counter/gauge value, or histogram sum.
	Value float64 `json:"value,omitempty"`
	// Histogram fields.
	Count  int64     `json:"count,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	// Series samples.
	Points []SeriesPoint `json:"points,omitempty"`
}

// Snapshot returns every metric, sorted by (type, name) — counters, then
// gauges, histograms and series — so serialisations are deterministic.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	var out []Metric
	for _, name := range sortedKeys(r.counters) {
		out = append(out, Metric{Name: name, Type: "counter", Value: float64(r.counters[name])})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Name: name, Type: "gauge", Value: r.gauges[name]})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		out = append(out, Metric{
			Name: name, Type: "histogram",
			Value: h.Sum, Count: h.Count, Min: h.Min, Max: h.Max,
			Bounds: h.Bounds, Counts: h.Counts,
		})
	}
	for _, name := range sortedKeys(r.series) {
		out = append(out, Metric{Name: name, Type: "series", Points: r.series[name].Points})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// InstanceCounter returns a per-instance counter name, e.g.
// InstanceCounter("bus.delivered", 3) → "bus.delivered.inst.3".
func InstanceCounter(prefix string, id int) string {
	return fmt.Sprintf("%s.inst.%d", prefix, id)
}
