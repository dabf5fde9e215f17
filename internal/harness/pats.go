package harness

import (
	"sort"

	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// pats implements the PATS master–slave framework of Wen et al. [67], the
// second related-work baseline the paper discusses (Section 9): a master
// instance performs the initial exploration and dispatches newly discovered
// UI states to slave instances as tasks; each slave is then confined to the
// neighbourhood of its assigned states.
//
// The paper's critique — which this implementation reproduces faithfully —
// is that the strategy "is highly susceptible to overlapping explorations,
// mainly due to many UI transitions being bidirectional in real-world apps":
// slaves dispatched to single screens drift back toward the popular regions
// through Back edges and shared navigation, so the partition does not hold.
type pats struct {
	r *runner

	master int
	slaves []int

	// frontier holds screens discovered by the master but not yet
	// dispatched; assigned maps each slave to its task screens.
	frontier []ui.Signature
	seen     map[ui.Signature]bool
	assigned map[int][]ui.Signature

	// dispatchEvery controls how often (in master transitions) the master
	// hands out tasks.
	sinceDispatch int
}

const patsDispatchEvery = 40

func newPATS(r *runner) strategy {
	return &pats{
		r:        r,
		master:   -1,
		seen:     make(map[ui.Signature]bool),
		assigned: make(map[int][]ui.Signature),
	}
}

func (s *pats) start() {
	if id, err := s.r.Allocate(); err == nil {
		s.master = id
	}
	// Slaves boot immediately (PATS keeps the pool warm) but idle near the
	// app root until they receive tasks.
	for i := 1; i < s.r.cfg.Instances; i++ {
		if id, err := s.r.Allocate(); err == nil {
			s.slaves = append(s.slaves, id)
		}
	}
}

func (s *pats) tick(sim.Duration) {}

func (s *pats) onEvent(ev trace.Event) {
	if ev.Instance != s.master || ev.Enforced {
		return
	}
	if !s.seen[ev.To] {
		s.seen[ev.To] = true
		s.frontier = append(s.frontier, ev.To)
	}
	s.sinceDispatch++
	if s.sinceDispatch >= patsDispatchEvery {
		s.sinceDispatch = 0
		s.dispatch()
	}
}

// dispatch assigns the accumulated frontier round-robin to slaves. A slave's
// confinement is approximated with the same Toller primitive TaOPT uses in
// reverse: every screen NOT in its task set (and not the app root) is marked
// blocked, so the driver steers the slave back toward its assignment. This
// is the state-dispatch semantics of PATS on the infrastructure available.
func (s *pats) dispatch() {
	if len(s.frontier) == 0 || len(s.slaves) == 0 {
		return
	}
	for i, sig := range s.frontier {
		slave := s.slaves[i%len(s.slaves)]
		s.assigned[slave] = append(s.assigned[slave], sig)
	}
	s.frontier = s.frontier[:0]

	// Rebuild each slave's block set: everything the master has seen except
	// the slave's own tasks is off limits.
	ids := append([]int(nil), s.slaves...)
	sort.Ints(ids)
	for _, slave := range ids {
		tasks := make(map[ui.Signature]bool, len(s.assigned[slave]))
		for _, sig := range s.assigned[slave] {
			tasks[sig] = true
		}
		blocks := s.r.blocks(slave)
		for sig := range s.seen {
			if !tasks[sig] {
				blocks.BlockMember(sig)
			}
		}
	}
}

var _ strategy = (*pats)(nil)
