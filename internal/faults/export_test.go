package faults

// Config returns the plan's configuration (zero for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}
