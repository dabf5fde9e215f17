package crash

import "sort"

// FirstSeen returns the earliest report for sig, and whether sig was seen.
func (l *Log) FirstSeen(sig Signature) (Report, bool) {
	idxs, ok := l.bySig[sig]
	if !ok {
		return Report{}, false
	}
	return l.reports[idxs[0]], true
}

// Merge folds other's reports into l. Both logs must be for the same app.
func (l *Log) Merge(other *Log) {
	for _, r := range other.reports {
		l.bySig[r.Signature] = append(l.bySig[r.Signature], len(l.reports))
		l.reports = append(l.reports, r)
	}
}

// Total returns the number of crash occurrences (with duplicates).
func (l *Log) Total() int { return len(l.reports) }

// Signatures returns the distinct crash signatures in deterministic order.
func (l *Log) Signatures() []Signature {
	out := make([]Signature, 0, len(l.bySig))
	for sig := range l.bySig {
		out = append(out, sig)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
