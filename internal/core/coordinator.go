package core

import (
	"errors"
	"sort"

	"taopt/internal/bus"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Mode selects the coordinator's parallelization mode (Section 5.3).
type Mode int

// Coordinator modes.
const (
	// DurationConstrained maintains exactly d_max concurrent instances for
	// the whole testing period, immediately replacing de-allocated ones.
	DurationConstrained Mode = iota
	// ResourceConstrained starts with a single instance and allocates more
	// only as new UI subspaces are identified, within a machine-time budget.
	ResourceConstrained
)

func (m Mode) String() string {
	switch m {
	case DurationConstrained:
		return "duration-constrained"
	case ResourceConstrained:
		return "resource-constrained"
	default:
		return "unknown-mode"
	}
}

// Default thresholds from Section 5.2/5.3.
const (
	// LMinLong is l_min^long = 5 minutes (resource-constrained mode);
	// subspaces found with it are confidently accepted at once.
	LMinLong = 5 * sim.Duration(60e9)
	// LMinShort is l_min^short = 1 minute (duration-constrained mode);
	// subspaces found with it need confirmation by a second instance.
	LMinShort = 1 * sim.Duration(60e9)
	// PaperStagnation is the paper's de-allocation threshold: an instance
	// discovering no new UI screens for one minute is released. That
	// constant presupposes real industrial apps, whose content-driven UIs
	// produce novel abstract screens at a far higher rate than this
	// repository's finite synthetic screen graphs.
	PaperStagnation = 1 * sim.Duration(60e9)
	// StagnationWindow is the calibrated default for the synthetic apps:
	// scaled so that "no new screens for the window" implies genuine
	// exhaustion of an instance's reachable territory, as it does at one
	// minute on real apps (see DESIGN.md, calibration notes).
	StagnationWindow = 10 * sim.Duration(60e9)
	// HeartbeatWindow is the default hang-detection threshold: an allocated
	// instance producing no trace events at all for this long is declared
	// hung and released. Healthy instances emit events every few seconds
	// (one per tool action), so two minutes of total silence is over an
	// order of magnitude beyond any legitimate action latency — far tighter
	// than stagnation, which tolerates events that merely revisit old
	// screens.
	HeartbeatWindow = 2 * sim.Duration(60e9)
	// AllocRetryBase and AllocRetryCap bound the exponential backoff (in
	// virtual time) applied when the farm is temporarily out of capacity.
	AllocRetryBase = 10 * sim.Duration(1e9)
	AllocRetryCap  = 5 * sim.Duration(60e9)
)

// Config parameterises a Coordinator.
type Config struct {
	Mode Mode
	// LMin overrides the mode's default l_min when non-zero.
	LMin sim.Duration
	// Stagnation overrides StagnationWindow when non-zero.
	Stagnation sim.Duration
	// Analyzer carries the trace-analysis knobs; LMin above wins over
	// Analyzer.LMin.
	Analyzer AnalyzerConfig
	// MinSubspaceSize rejects candidates with fewer distinct member screens.
	MinSubspaceSize int
	// WarmUp rejects candidates reported before an instance has explored
	// this long: the first transient of a trace makes everything look novel,
	// so windows from it span unrelated functionalities.
	WarmUp sim.Duration
	// MaxSpaceFraction rejects candidates claiming more than this share of
	// all screens observed so far — a subspace is a part of the UI space,
	// never most of it.
	MaxSpaceFraction float64
	// ConfirmShort is how many distinct instances must report a matching
	// candidate under LMinShort before acceptance (paper: 2).
	ConfirmShort int
	// DropOrphans leaves a de-allocated owner's subspace blocked for
	// everyone instead of re-dedicating it to the next allocated instance.
	// Off by default: stagnation can fire before true exhaustion, and a
	// permanently orphaned subspace is a dead zone nobody can finish (the
	// ablation benches flip this).
	DropOrphans bool
	// Heartbeat overrides HeartbeatWindow when non-zero; negative disables
	// hang detection entirely.
	Heartbeat sim.Duration
	// AllocRetry and AllocRetryMax override the allocation backoff bounds
	// when non-zero.
	AllocRetry    sim.Duration
	AllocRetryMax sim.Duration
	// Obs, when non-nil, receives a typed decision-log event at every
	// consequential coordinator branch (candidate verdicts, subspace
	// lifecycle, health verdicts, allocation backoff). Nil — the default —
	// costs nothing: telemetry never runs on the per-event hot path.
	Obs *obs.Log
}

// DefaultConfig returns the paper's configuration for the given mode.
func DefaultConfig(mode Mode) Config {
	lmin := LMinShort
	if mode == ResourceConstrained {
		lmin = LMinLong
	}
	return Config{
		Mode:             mode,
		LMin:             lmin,
		Stagnation:       StagnationWindow,
		Analyzer:         DefaultAnalyzerConfig(lmin),
		MinSubspaceSize:  3,
		WarmUp:           3 * sim.Duration(60e9),
		MaxSpaceFraction: 0.5,
		ConfirmShort:     2,
	}
}

// Env is the coordinator's handle on the testing cloud's allocation
// primitives. The harness implements it; the coordinator never touches
// devices, tools or the app directly, and everything finer-grained than a
// lease — entrypoint blocks, lifecycle commands — travels as bus commands
// through the Sender given to NewCoordinator.
type Env interface {
	// Now returns the current virtual time.
	Now() sim.Duration
	// MaxInstances is the concurrency cap d_max.
	MaxInstances() int
	// ActiveInstances lists the IDs of running instances in ascending
	// order, in a fresh slice the caller may keep or modify.
	ActiveInstances() []int
	// Allocate boots a new testing instance, returning its ID. An error
	// wrapping bus.ErrFarmBusy means no device is available right now
	// and the attempt may be retried; any other error is permanent (the
	// run is winding down) and stops further allocation.
	Allocate() (id int, err error)
	// Deallocate releases a running instance. Errors (unknown ID, double
	// release) are surfaced for accounting, never fatal.
	Deallocate(id int) error
}

// edgeObs records one observed way into a screen.
type edgeObs struct {
	from   ui.Signature
	widget ui.WidgetPath
}

// Coordinator is the test coordinator of Figure 1(b): it consumes analyzer
// candidates, accepts subspaces per the mode's rules, dedicates each
// subspace to one instance, blocks its entrypoints everywhere else, and
// manages allocation/de-allocation.
type Coordinator struct {
	cfg      Config
	env      Env
	port     bus.Sender
	analyzer *Analyzer
	// obs is the decision log (nil when telemetry is off; emits are nil-safe).
	obs *obs.Log

	// incoming[to] lists observed edges into screen `to`.
	incoming map[ui.Signature][]edgeObs
	// launchScreens are screens reached by app launches; they are never
	// blocked (blocking the home screen would wedge every instance).
	launchScreens map[ui.Signature]bool

	accepted []*Subspace
	owned    map[ui.Signature]int // member screen -> subspace ID

	// pending holds each instance's latest unconfirmed short-mode candidate.
	pending map[int]Candidate
	// orphans are accepted subspaces whose owner was de-allocated, queued
	// for re-dedication to the next allocated instance (oldest first).
	orphans []int

	// Stagnation tracking.
	seen    map[int]map[ui.Signature]bool
	lastNew map[int]sim.Duration
	// firstSeen is when each instance started exploring (for warm-up), and
	// globalSeen is every screen any instance has observed.
	firstSeen  map[int]sim.Duration
	globalSeen map[ui.Signature]bool

	// Health monitoring. lastEvent is trace-event recency per instance (the
	// heartbeat); tracked holds the instances this coordinator allocated and
	// has not yet retired — an ID in tracked but absent from the env's
	// active list died underneath us. tracked is set only in allocate() and
	// cleared only in retire(): trailing events from a just-released
	// instance must not resurrect it.
	lastEvent map[int]sim.Duration
	tracked   map[int]bool

	// Allocation retry state: deferred wants and capped exponential backoff
	// in virtual time. allocDisabled latches on a permanent (non-busy)
	// allocation error — the run is winding down.
	pendingAllocs int
	allocBackoff  sim.Duration
	nextAllocAt   sim.Duration
	allocDisabled bool

	// stats
	deallocations int
	allocations   int
	stats         Stats
}

// Stats counts coordinator decisions, for reports and debugging.
type Stats struct {
	Candidates    int // candidates received from the analyzer
	WarmingUp     int // rejected: instance still in its warm-up period
	TooBroad      int // rejected: claimed most of the known UI space
	TrimmedAway   int // rejected: too small after owned/launch trimming
	EntryTaken    int // rejected: entry already owned or unblockable
	Merged        int // folded into an enclosing subspace
	Extended      int // owner reports extending an accepted subspace
	Unconfirmed   int // stored as pending, waiting for a second reporter
	Accepted      int // accepted as new subspaces
	Allocations   int
	Deallocations int

	// Failure handling (all zero on a fault-free run).
	Deaths         int // instances that vanished from the farm without our release
	Hangs          int // instances released for missing the heartbeat window
	AllocDeferred  int // allocation attempts deferred on a busy farm
	ReleaseErrors  int // de-allocations the farm rejected (unknown/double)
	Orphaned       int // subspaces orphaned by their owner's departure
	Rededicated    int // orphans re-assigned to a replacement instance
	DroppedOrphans int // orphans left permanently blocked (DropOrphans)
	CmdRetries     int // block commands retransmitted after a retryable failure
	CmdDropped     int // block commands abandoned after exhausting retransmits
}

// NewCoordinator wires a coordinator to its environment and the transport
// it emits block commands on. Call Start before feeding events.
func NewCoordinator(cfg Config, env Env, port bus.Sender, book *trace.Book) *Coordinator {
	if cfg.LMin == 0 {
		cfg.LMin = LMinShort
		if cfg.Mode == ResourceConstrained {
			cfg.LMin = LMinLong
		}
	}
	if cfg.Stagnation == 0 {
		cfg.Stagnation = StagnationWindow
	}
	if cfg.MinSubspaceSize == 0 {
		cfg.MinSubspaceSize = 3
	}
	if cfg.WarmUp == 0 {
		cfg.WarmUp = 3 * sim.Duration(60e9)
	}
	if cfg.MaxSpaceFraction == 0 {
		cfg.MaxSpaceFraction = 0.5
	}
	if cfg.ConfirmShort == 0 {
		cfg.ConfirmShort = 2
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = HeartbeatWindow
	}
	if cfg.AllocRetry == 0 {
		cfg.AllocRetry = AllocRetryBase
	}
	if cfg.AllocRetryMax == 0 {
		cfg.AllocRetryMax = AllocRetryCap
	}
	cfg.Analyzer.LMin = cfg.LMin
	cfg.Analyzer.Obs = cfg.Obs
	cfg.Analyzer.Clock = env.Now
	return &Coordinator{
		cfg:           cfg,
		env:           env,
		port:          port,
		analyzer:      NewAnalyzer(cfg.Analyzer, book),
		obs:           cfg.Obs,
		incoming:      make(map[ui.Signature][]edgeObs),
		launchScreens: make(map[ui.Signature]bool),
		owned:         make(map[ui.Signature]int),
		pending:       make(map[int]Candidate),
		seen:          make(map[int]map[ui.Signature]bool),
		lastNew:       make(map[int]sim.Duration),
		firstSeen:     make(map[int]sim.Duration),
		globalSeen:    make(map[ui.Signature]bool),
		lastEvent:     make(map[int]sim.Duration),
		tracked:       make(map[int]bool),
	}
}

// Start allocates the initial instances: d_max at once in the
// duration-constrained mode, a single one in the resource-constrained mode
// (Figure 4, step 0).
func (c *Coordinator) Start() {
	want := 1
	if c.cfg.Mode == DurationConstrained {
		want = c.env.MaxInstances()
	}
	for i := 0; i < want; i++ {
		c.allocate()
	}
}

// Subspaces returns the accepted subspaces in acceptance order.
func (c *Coordinator) Subspaces() []*Subspace { return c.accepted }

// OrphanCount returns the number of subspaces currently waiting for (or,
// under DropOrphans, permanently denied) a replacement owner.
func (c *Coordinator) OrphanCount() int { return len(c.orphans) }

// DecisionStats returns counts of the coordinator's decisions so far.
func (c *Coordinator) DecisionStats() Stats {
	st := c.stats
	st.Allocations = c.allocations
	st.Deallocations = c.deallocations
	return st
}

// OnTransition consumes one Toller event. The harness subscribes the
// coordinator to every driver.
func (c *Coordinator) OnTransition(ev trace.Event) {
	now := c.env.Now()

	// Learn the UI transition graph's incoming edges (for entrypoint
	// blocking) from genuine tool actions.
	switch {
	case ev.Action.Kind == trace.ActionLaunch:
		c.launchScreens[ev.To] = true
	case ev.Action.Kind == trace.ActionTap && !ev.Enforced:
		c.learnEdge(ev)
	}

	// Heartbeat: any trace event proves the instance is alive.
	if c.tracked[ev.Instance] {
		c.lastEvent[ev.Instance] = now
	}

	// Stagnation bookkeeping: has this instance discovered a new screen?
	inst := ev.Instance
	s, ok := c.seen[inst]
	if !ok {
		s = make(map[ui.Signature]bool)
		c.seen[inst] = s
		c.lastNew[inst] = now
		c.firstSeen[inst] = now
	}
	c.globalSeen[ev.To] = true
	if !s[ev.To] {
		s[ev.To] = true
		c.lastNew[inst] = now
	}

	// Feed the analyzer.
	if cand, found := c.analyzer.Observe(ev); found {
		c.onCandidate(cand)
	}

	// De-allocate stagnant instances (Section 5.3, last paragraph).
	c.reapStagnant(now)
}

// learnEdge records how screens are reached, and retro-blocks newly learned
// edges into already-accepted subspaces on non-owner instances.
func (c *Coordinator) learnEdge(ev trace.Event) {
	eo := edgeObs{from: ev.From, widget: ev.Action.Widget}
	for _, e := range c.incoming[ev.To] {
		if e == eo {
			eo.widget = "" // sentinel: already known
			break
		}
	}
	if eo.widget == "" {
		return
	}
	c.incoming[ev.To] = append(c.incoming[ev.To], eo)

	// If this edge leads into a subspace someone owns, block it for every
	// non-owner immediately.
	if subID, owned := c.owned[ev.To]; owned {
		sub := c.accepted[subID]
		if sub.Members[ev.From] {
			return // internal edge
		}
		for _, id := range c.env.ActiveInstances() {
			if id != sub.Owner {
				c.blockWidget(id, ev.From, ev.Action.Widget)
			}
		}
	}
}

// reject logs one candidate-rejection verdict in the decision log.
func (c *Coordinator) reject(now sim.Duration, cand Candidate, reason string) {
	c.obs.Emit(obs.Decision{
		AtNS: obs.At(now), Kind: obs.KindReject, Instance: cand.Instance, Sub: -1,
		Entry: obs.Sig(cand.Entry), Reason: reason,
	})
}

// onCandidate applies the acceptance rules of Section 5.2: l_min^long
// candidates are accepted at once; l_min^short candidates need matching
// reports from ConfirmShort distinct instances.
func (c *Coordinator) onCandidate(cand Candidate) {
	c.stats.Candidates++
	now := c.env.Now()
	c.obs.Emit(obs.Decision{
		AtNS: obs.At(now), Kind: obs.KindCandidate, Instance: cand.Instance, Sub: -1,
		Entry: obs.Sig(cand.Entry), Members: len(cand.Members),
		Score: cand.Score, Overlap: cand.Overlap, Purity: cand.Purity,
	})
	if now-c.firstSeen[cand.Instance] < c.cfg.WarmUp {
		c.stats.WarmingUp++
		c.reject(now, cand, "warm-up")
		return
	}
	if float64(len(cand.Members)) > c.cfg.MaxSpaceFraction*float64(len(c.globalSeen)) {
		c.stats.TooBroad++
		c.reject(now, cand, "too-broad")
		return
	}
	// Trim screens that can never be blocked or are already owned, keeping
	// count of which accepted subspace the owned ones belong to.
	members := make([]ui.Signature, 0, len(cand.Members))
	overlapBySub := make(map[int]int)
	for _, m := range cand.Members {
		if c.launchScreens[m] {
			continue
		}
		if subID, taken := c.owned[m]; taken {
			overlapBySub[subID]++
			continue
		}
		members = append(members, m)
	}

	// A candidate majority-owned by one subspace is a re-observation of that
	// subspace, typically by its own owner going deeper: extend it rather
	// than accept the leftover as a separate subspace with a different owner
	// — fragmenting a functionality across owners makes them steer each
	// other out of their own territory.
	bestSub, bestOverlap := -1, 0
	subIDs := make([]int, 0, len(overlapBySub))
	for subID := range overlapBySub {
		subIDs = append(subIDs, subID)
	}
	sort.Ints(subIDs)
	for _, subID := range subIDs {
		if n := overlapBySub[subID]; n > bestOverlap {
			bestSub, bestOverlap = subID, n
		}
	}
	if bestSub >= 0 && bestOverlap >= len(members) && bestOverlap >= c.cfg.MinSubspaceSize {
		if len(members) > 0 && cand.Instance == c.accepted[bestSub].Owner {
			c.stats.Extended++
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(now), Kind: obs.KindExtend, Instance: cand.Instance, Sub: bestSub,
				Entry: obs.Sig(c.accepted[bestSub].Entry), Members: len(members),
			})
			c.merge(c.accepted[bestSub], members)
			c.analyzer.ResetInstance(cand.Instance)
		} else {
			c.reject(now, cand, "reobservation")
		}
		return
	}

	if len(members) < c.cfg.MinSubspaceSize {
		c.stats.TrimmedAway++
		c.reject(now, cand, "trimmed-away")
		return
	}
	if _, taken := c.owned[cand.Entry]; taken || c.launchScreens[cand.Entry] {
		c.stats.EntryTaken++
		c.reject(now, cand, "entry-taken")
		return
	}

	// A candidate whose every observed entrance comes from inside one
	// already-accepted subspace is not a new functionality: it is a deeper
	// region of that subspace, reachable only by its owner. Accepting it
	// standalone (with whatever instance happened to report it) would carve
	// a zone nobody can reach — the owner would be steered out of it and
	// everyone else is blocked from the path leading there. Merge it
	// instead, without confirmation: only the enclosing owner can ever see
	// it twice.
	if encl, ok := c.enclosingSubspace(cand.Entry, members); ok {
		// Merge only reports by the enclosing owner itself: the owner is the
		// one instance that legitimately explores past the subspace's
		// boundary, so its deeper findings extend the subspace. Anyone
		// else's report from inside someone's territory is a leak (a rare
		// cross edge) — folding it in would snowball unrelated screens.
		if cand.Instance == encl.Owner {
			c.stats.Merged++
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(now), Kind: obs.KindMerge, Instance: cand.Instance, Sub: encl.ID,
				Entry: obs.Sig(cand.Entry), Members: len(members),
			})
			c.merge(encl, members)
			c.analyzer.ResetInstance(cand.Instance)
		} else {
			c.reject(now, cand, "foreign-enclosed")
		}
		return
	}

	if c.cfg.LMin < LMinLong {
		confirmed, merged := c.confirm(cand, members)
		if !confirmed {
			c.stats.Unconfirmed++
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(now), Kind: obs.KindPending, Instance: cand.Instance, Sub: -1,
				Entry: obs.Sig(cand.Entry), Members: len(members),
			})
			return
		}
		members = merged
	}

	c.accept(cand, members)
}

// pendingTTL bounds how long an unconfirmed candidate stays comparable.
const pendingTTL = 5 * sim.Duration(60e9)

// confirm implements the short-l_min acceptance rule: a candidate is accepted
// only when a second instance has recently reported a matching subspace.
// "Matching" is member-set overlap — two instances exploring the same
// functionality settle on different screens, so entry equality would almost
// never fire.
func (c *Coordinator) confirm(cand Candidate, members []ui.Signature) (bool, []ui.Signature) {
	now := c.env.Now()
	memberSet := make(map[ui.Signature]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
	}
	// Deterministic iteration: acceptance decisions must not depend on map
	// iteration order.
	insts := make([]int, 0, len(c.pending))
	for inst := range c.pending {
		insts = append(insts, inst)
	}
	sort.Ints(insts)
	for _, inst := range insts {
		p := c.pending[inst]
		if inst != cand.Instance && now-p.At > pendingTTL {
			delete(c.pending, inst)
			continue
		}
		inter := 0
		for _, m := range p.Members {
			if memberSet[m] {
				inter++
			}
		}
		smaller := len(p.Members)
		if len(members) < smaller {
			smaller = len(members)
		}
		if smaller == 0 || float64(inter)/float64(smaller) < 0.5 {
			continue
		}
		// Matching reports confirm in two ways: a second instance reported
		// the same subspace (the paper's l_min^short rule), or the same
		// instance has kept reporting it for l_min^long — five minutes of
		// sustained exploration is exactly the evidence the long rule
		// accepts at once. The second way matters once coordination works:
		// instances end up in different functionalities, so cross-instance
		// confirmation dries up for late-discovered subspaces.
		if inst == cand.Instance && now-p.At < LMinLong {
			continue
		}
		// The accepted member set is the consensus — the intersection of
		// the two reports: screens appearing in only one report are as
		// likely leftovers of earlier roaming as genuine members.
		delete(c.pending, inst)
		delete(c.pending, cand.Instance)
		var consensus []ui.Signature
		for _, m := range p.Members {
			if memberSet[m] {
				consensus = append(consensus, m)
			}
		}
		if len(consensus) < c.cfg.MinSubspaceSize {
			return false, nil
		}
		reason := "second-instance"
		if inst == cand.Instance {
			reason = "sustained"
		}
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(now), Kind: obs.KindConfirmed, Instance: cand.Instance, Sub: -1,
			Entry: obs.Sig(cand.Entry), Members: len(consensus), Reason: reason,
		})
		return true, consensus
	}

	// Store or refresh this instance's pending report. A report that still
	// matches the instance's previous one keeps the original timestamp, so
	// sustained exploration of one subspace accumulates toward the
	// l_min^long acceptance above.
	if prev, ok := c.pending[cand.Instance]; ok {
		inter := 0
		for _, m := range prev.Members {
			if memberSet[m] {
				inter++
			}
		}
		smaller := len(prev.Members)
		if len(members) < smaller {
			smaller = len(members)
		}
		if smaller > 0 && float64(inter)/float64(smaller) >= 0.5 {
			c.pending[cand.Instance] = Candidate{
				Instance: cand.Instance,
				Entry:    prev.Entry,
				Members:  members,
				Score:    cand.Score,
				At:       prev.At,
			}
			return false, nil
		}
	}
	c.pending[cand.Instance] = Candidate{
		Instance: cand.Instance,
		Entry:    cand.Entry,
		Members:  members,
		Score:    cand.Score,
		At:       now,
	}
	return false, nil
}

// enclosingSubspace reports the accepted subspace that fully encloses the
// candidate's entrances: every observed non-launch edge into the entry (and
// there is at least one) originates from that subspace's members.
func (c *Coordinator) enclosingSubspace(entry ui.Signature, members []ui.Signature) (*Subspace, bool) {
	memberSet := make(map[ui.Signature]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
	}
	enclosing := -1
	found := false
	for _, e := range c.incoming[entry] {
		if memberSet[e.from] {
			continue // internal edges say nothing about enclosure
		}
		if c.launchScreens[e.from] {
			return nil, false // reachable straight from the hub: top-level
		}
		subID, owned := c.owned[e.from]
		if !owned {
			return nil, false // reachable from unowned territory: standalone
		}
		if enclosing >= 0 && subID != enclosing {
			return nil, false // straddles two subspaces: standalone
		}
		enclosing = subID
		found = true
	}
	if !found || enclosing < 0 {
		return nil, false
	}
	return c.accepted[enclosing], true
}

// merge folds the absorbable subset of members into an existing subspace and
// blocks the additions on every non-owner instance.
func (c *Coordinator) merge(sub *Subspace, members []ui.Signature) {
	absorbed := c.absorbable(sub, members)
	if len(absorbed) == 0 {
		return
	}
	for _, m := range absorbed {
		sub.Members[m] = true
		c.owned[m] = sub.ID
	}
	for _, id := range c.env.ActiveInstances() {
		if id != sub.Owner {
			c.blockSubspace(id, sub)
		}
	}
}

// absorbable returns the subset of candidate screens that are genuine
// extensions of sub. A candidate screen qualifies when (a) none of its
// observed incoming edges originate outside the subspace-plus-candidate
// region (an outside edge means the screen is reachable without passing
// through the subspace, so blocking it as part of the subspace would be
// wrong), and (b) it is connected to the subspace: reachable from a member
// through qualifying candidate screens. Launch screens always count as
// outside. Candidate-internal cycles are fine — flows loop — which is why
// the connectivity check grows as a closure from the subspace boundary.
func (c *Coordinator) absorbable(sub *Subspace, members []ui.Signature) []ui.Signature {
	candidate := make(map[ui.Signature]bool, len(members))
	for _, m := range members {
		if _, taken := c.owned[m]; !taken && !c.launchScreens[m] {
			candidate[m] = true
		}
	}

	// (a) sealed: no edges from genuinely external screens.
	sealed := make(map[ui.Signature]bool, len(candidate))
	for m := range candidate {
		ok := true
		for _, e := range c.incoming[m] {
			if e.from == m || sub.Members[e.from] || candidate[e.from] {
				continue
			}
			ok = false
			break
		}
		if ok {
			sealed[m] = true
		}
	}

	// (b) connected: closure from the subspace boundary over sealed screens.
	acc := make(map[ui.Signature]bool)
	for changed := true; changed; {
		changed = false
		for m := range sealed {
			if acc[m] {
				continue
			}
			for _, e := range c.incoming[m] {
				if sub.Members[e.from] || acc[e.from] {
					acc[m] = true
					changed = true
					break
				}
			}
		}
	}

	out := make([]ui.Signature, 0, len(acc))
	for _, m := range members {
		if acc[m] {
			out = append(out, m)
		}
	}
	return out
}

// accept dedicates the subspace to the discovering instance and blocks its
// entrypoints on every other instance (Figure 4, step 5).
func (c *Coordinator) accept(cand Candidate, members []ui.Signature) {
	c.stats.Accepted++
	sub := &Subspace{
		ID:      len(c.accepted),
		Entry:   cand.Entry,
		Members: make(map[ui.Signature]bool, len(members)),
		Owner:   cand.Instance,
		FoundAt: c.env.Now(),
	}
	for _, m := range members {
		sub.Members[m] = true
		c.owned[m] = sub.ID
	}
	sub.InitialMembers = len(sub.Members)
	c.accepted = append(c.accepted, sub)
	c.obs.Emit(obs.Decision{
		AtNS: obs.At(sub.FoundAt), Kind: obs.KindAccept, Instance: sub.Owner, Sub: sub.ID,
		Entry: obs.Sig(sub.Entry), Members: sub.InitialMembers, Score: cand.Score,
	})

	for _, id := range c.env.ActiveInstances() {
		if id != sub.Owner {
			c.blockSubspace(id, sub)
		}
	}
	// The owner's current segment is now a dedicated subspace; start its
	// next identification fresh.
	c.analyzer.ResetInstance(sub.Owner)

	// Resource-constrained mode: a newly identified subspace justifies a
	// new instance if a device is free (Figure 4, step 6). The new instance
	// is blocked from every accepted subspace, so it explores the rest.
	if c.cfg.Mode == ResourceConstrained {
		c.allocate()
	}
}

// blockWidget and blockMember emit one entrypoint-block command each on the
// transport. Permanent reply errors are ignored: blocking a just-departed
// instance is a no-op at the executor, exactly as installing blocks on a
// throwaway set was. Retryable failures — the transport reported loss —
// are retransmitted by sendBlock.
func (c *Coordinator) blockWidget(id int, from ui.Signature, w ui.WidgetPath) {
	c.sendBlock(bus.Command{Kind: bus.BlockWidget, Instance: id, Screen: from, Widget: w})
}

func (c *Coordinator) blockMember(id int, m ui.Signature) {
	c.sendBlock(bus.Command{Kind: bus.BlockMember, Instance: id, Screen: m})
}

// cmdRetryLimit bounds the retransmits of one lost block command. Block
// commands are idempotent at the executor (installing the same block twice
// is a no-op), so retransmission is always safe; the bound keeps a severed
// transport from looping forever.
const cmdRetryLimit = 3

// sendBlock fires one block command, retransmitting on retryable failures
// (the transport reported loss or timeout, not a permanent refusal). A
// command that exhausts the budget is abandoned and decision-logged: the
// entrypoint stays unblocked until the analyzer re-learns the edge, which
// degrades efficiency, never correctness.
func (c *Coordinator) sendBlock(cmd bus.Command) {
	rep := c.port.Send(cmd)
	for attempt := 0; rep.Err != nil && bus.Retryable(rep.Err); attempt++ {
		if attempt == cmdRetryLimit {
			c.stats.CmdDropped++
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(c.env.Now()), Kind: obs.KindCmdDrop, Instance: cmd.Instance, Sub: -1,
				Entry: obs.Sig(cmd.Screen), Reason: cmd.Kind.String(),
			})
			return
		}
		c.stats.CmdRetries++
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(c.env.Now()), Kind: obs.KindCmdRetry, Instance: cmd.Instance, Sub: -1,
			Entry: obs.Sig(cmd.Screen), Reason: cmd.Kind.String(),
		})
		rep = c.port.Send(cmd)
	}
}

// blockSubspace installs sub's blocks on one instance: every observed edge
// from outside into the subspace is disabled, and members are marked so the
// driver steers the tool out if it slips in through an unobserved edge.
// Members are visited in sorted signature order — the command sequence on
// the transport is part of the run's reproducible record (replayable traces
// are diffed byte-for-byte), so it must not inherit map iteration order.
func (c *Coordinator) blockSubspace(id int, sub *Subspace) {
	members := make([]ui.Signature, 0, len(sub.Members))
	for m := range sub.Members {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, m := range members {
		c.blockMember(id, m)
		for _, e := range c.incoming[m] {
			if !sub.Members[e.from] {
				c.blockWidget(id, e.from, e.widget)
			}
		}
	}
}

// allocate boots a new instance. If any accepted subspace was orphaned by
// its owner's de-allocation, the oldest orphan is re-dedicated to the new
// instance (a subspace must always have a living owner, or it becomes a
// permanently blocked dead zone); every other accepted subspace is blocked.
//
// On a busy farm (bus.ErrFarmBusy) the want is deferred and retried by
// Tick with capped exponential backoff; any other allocation error is
// permanent (the run is winding down) and disables allocation for good.
func (c *Coordinator) allocate() (int, bool) {
	if c.allocDisabled {
		return 0, false
	}
	id, err := c.env.Allocate()
	if err != nil {
		if bus.Retryable(err) {
			reason := "farm-busy"
			if errors.Is(err, bus.ErrTimeout) {
				reason = "command-timeout"
			}
			c.deferAllocation(reason)
		} else {
			c.allocDisabled = true
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(c.env.Now()), Kind: obs.KindAllocDisable, Instance: -1, Sub: -1,
				Reason: err.Error(),
			})
		}
		return 0, false
	}
	c.allocations++
	c.allocBackoff = 0
	c.nextAllocAt = 0
	now := c.env.Now()
	c.obs.Emit(obs.Decision{
		AtNS: obs.At(now), Kind: obs.KindAllocate, Instance: id, Sub: -1,
	})
	c.lastNew[id] = now
	c.lastEvent[id] = now
	c.tracked[id] = true
	if !c.cfg.DropOrphans && len(c.orphans) > 0 {
		adopted := c.orphans[0]
		c.accepted[adopted].Owner = id
		c.orphans = c.orphans[1:]
		c.stats.Rededicated++
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(now), Kind: obs.KindRededicate, Instance: id, Sub: adopted,
			Entry: obs.Sig(c.accepted[adopted].Entry),
		})
	}
	for _, sub := range c.accepted {
		if sub.Owner != id {
			c.blockSubspace(id, sub)
		}
	}
	return id, true
}

// deferAllocation queues one want for the next Tick and extends the backoff:
// base on the first consecutive failure, doubling up to the cap afterwards.
// reason records why the attempt failed retryably ("farm-busy" or
// "command-timeout").
func (c *Coordinator) deferAllocation(reason string) {
	if c.pendingAllocs < c.env.MaxInstances() {
		c.pendingAllocs++
	}
	c.stats.AllocDeferred++
	if c.allocBackoff == 0 {
		c.allocBackoff = c.cfg.AllocRetry
	} else {
		c.allocBackoff *= 2
		if c.allocBackoff > c.cfg.AllocRetryMax {
			c.allocBackoff = c.cfg.AllocRetryMax
		}
	}
	c.nextAllocAt = c.env.Now() + c.allocBackoff
	c.obs.Emit(obs.Decision{
		AtNS: obs.At(c.env.Now()), Kind: obs.KindAllocDefer, Instance: -1, Sub: -1,
		BackoffNS: int64(c.allocBackoff), Reason: reason,
	})
}

// retire removes one instance from coordination: its lease is released when
// deallocate is set (dead instances are already gone from the farm), its
// analyzer window is discarded, and its subspaces are orphaned. Release
// errors are counted, never fatal — a stale lease must not take down the
// run.
func (c *Coordinator) retire(id int, deallocate bool) {
	now := c.env.Now()
	if deallocate {
		if err := c.env.Deallocate(id); err != nil {
			c.stats.ReleaseErrors++
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(now), Kind: obs.KindReleaseError, Instance: id, Sub: -1,
				Reason: err.Error(),
			})
		}
		c.deallocations++
	}
	c.analyzer.ResetInstance(id)
	delete(c.seen, id)
	delete(c.lastNew, id)
	delete(c.firstSeen, id)
	delete(c.lastEvent, id)
	delete(c.tracked, id)
	for _, sub := range c.accepted {
		if sub.Owner == id {
			c.orphans = append(c.orphans, sub.ID)
			reason := "queued"
			if c.cfg.DropOrphans {
				c.stats.DroppedOrphans++
				reason = "dropped"
			} else {
				c.stats.Orphaned++
			}
			c.obs.Emit(obs.Decision{
				AtNS: obs.At(now), Kind: obs.KindOrphan, Instance: id, Sub: sub.ID,
				Entry: obs.Sig(sub.Entry), Reason: reason,
			})
		}
	}
}

// replaceLost applies the mode's response to a lost instance:
// duration-constrained immediately allocates a replacement;
// resource-constrained allocates only when the departed owner left orphaned
// subspaces behind (identified work needing a living owner) and otherwise
// defers to the next subspace acceptance.
func (c *Coordinator) replaceLost() {
	switch {
	case c.cfg.Mode == DurationConstrained:
		c.allocate()
	case len(c.orphans) > 0:
		c.allocate()
	}
}

// reapStagnant de-allocates instances that have not discovered a new UI
// screen within the stagnation window, then applies the mode's response via
// replaceLost.
func (c *Coordinator) reapStagnant(now sim.Duration) {
	active := c.env.ActiveInstances()
	reaped := false
	for _, id := range active {
		last, ok := c.lastNew[id]
		if !ok {
			c.lastNew[id] = now
			continue
		}
		if now-last <= c.cfg.Stagnation {
			continue
		}
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(now), Kind: obs.KindStagnant, Instance: id, Sub: -1,
			IdleNS: int64(now - last),
		})
		c.retire(id, true)
		c.replaceLost()
		reaped = true
	}
	// Liveness guard (resource-constrained mode): the paper defers new
	// allocations until a new subspace is identified, but with zero active
	// instances nothing can ever be identified again. A practical deployment
	// relaunches one instance; we do the same (documented in DESIGN.md).
	// Only a reap changes the farm, so only then is the list asked for again.
	if len(active) == 0 || reaped && len(c.env.ActiveInstances()) == 0 {
		c.allocate()
	}
}

// Tick drives the health monitor and the allocation-retry loop. The harness
// calls it periodically (at its sampling cadence) so dead and hung
// instances are noticed even while no trace events arrive — precisely the
// situation a hang creates.
func (c *Coordinator) Tick(now sim.Duration) {
	c.checkHealth(now)
	c.ensureCapacity(now)
}

// checkHealth detects failed instances. Death: an instance this coordinator
// allocated is gone from the farm without our Deallocate — the emulator
// process died; its lease was already charged up to the failure. Hang: an
// instance is still allocated (and billed) but has produced no trace event
// for the heartbeat window; it is released and replaced. Both orphan the
// instance's subspaces through the usual queue.
func (c *Coordinator) checkHealth(now sim.Duration) {
	active := make(map[int]bool)
	for _, id := range c.env.ActiveInstances() {
		active[id] = true
	}

	tracked := make([]int, 0, len(c.tracked))
	for id := range c.tracked {
		tracked = append(tracked, id)
	}
	sort.Ints(tracked)
	for _, id := range tracked {
		if active[id] {
			continue
		}
		c.stats.Deaths++
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(now), Kind: obs.KindDead, Instance: id, Sub: -1,
		})
		c.retire(id, false)
		c.replaceLost()
	}

	if c.cfg.Heartbeat <= 0 {
		return
	}
	ids := make([]int, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if !c.tracked[id] {
			continue
		}
		last, ok := c.lastEvent[id]
		if !ok || now-last <= c.cfg.Heartbeat {
			continue
		}
		c.stats.Hangs++
		c.obs.Emit(obs.Decision{
			AtNS: obs.At(now), Kind: obs.KindHung, Instance: id, Sub: -1,
			IdleNS: int64(now - last),
		})
		c.retire(id, true)
		c.replaceLost()
	}
}

// ensureCapacity retries deferred allocations once the backoff expires, and
// tops the fleet back up to d_max in duration-constrained mode. Running
// degraded with fewer than d_max instances is the designed outcome while
// the farm stays busy — the coordinator keeps testing with whatever it has
// and never aborts.
func (c *Coordinator) ensureCapacity(now sim.Duration) {
	if c.allocDisabled {
		return
	}
	if c.cfg.Mode == DurationConstrained {
		if deficit := c.env.MaxInstances() - len(c.env.ActiveInstances()); deficit > c.pendingAllocs {
			c.pendingAllocs = deficit
		}
	}
	if len(c.env.ActiveInstances()) == 0 && c.pendingAllocs == 0 {
		c.pendingAllocs = 1
	}
	if c.pendingAllocs == 0 || now < c.nextAllocAt {
		return
	}
	want := c.pendingAllocs
	c.pendingAllocs = 0
	for i := 0; i < want; i++ {
		if _, ok := c.allocate(); !ok {
			// allocate re-queued this want (busy) or latched allocDisabled
			// (permanent); either way re-queue the untried remainder.
			c.pendingAllocs += want - i - 1
			break
		}
	}
}
