package obs

// Counter returns the named counter's value (0 if absent).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// Gauge returns the named gauge's value (0 if absent).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	return r.gauges[name]
}
