package faults

// Total returns the total number of injected faults.
func (s Stats) Total() int {
	return s.Deaths + s.Hangs + s.AllocFailures + s.TraceDrops + s.TraceDelays + s.CmdLosses
}

// Config returns the plan's configuration (zero for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}
