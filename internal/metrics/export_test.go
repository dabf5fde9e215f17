package metrics

// FinalCoverage returns the last sample's coverage (0 for an empty timeline).
func (t Timeline) FinalCoverage() int {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].Covered
}
