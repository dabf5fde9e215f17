// Package toller is this repository's analogue of the Toller framework [64]:
// an infrastructure layer that sits between any UI testing tool and the app.
// It (1) reports every UI transition — hierarchy changes along with the
// triggering UI action — without modifying the tool or the AUT, and (2)
// enforces entrypoint blocks: on each screen update it identifies UI elements
// matching a blocked entrypoint and withholds them before the tool can
// interact with them (Section 5.3).
//
// Tool-agnosticism is structural: tools receive only a View (the screen's
// activity, its abstract signature and its executable actions) and never see
// app internals; TaOPT's core receives only trace.Events and never sees the
// tool. A concrete hierarchy is built only when the screen book sees a
// signature for the first time.
package toller

import (
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// View is what a testing tool observes: the current screen's activity and
// abstract signature, and the actions it may take there.
//
// Actions holds a tap on every widget that is not a blocked entrypoint, in
// widget order, then Back, always last. It is the emulator's reused buffer
// (device.Emulator.Actions): it stays valid until the driver's next View,
// so a tool that wants an action beyond that keeps the Action value, never
// the slice.
type View struct {
	Activity string
	Sig      ui.Signature
	Actions  []device.Action
}

// Listener receives UI transition notifications.
type Listener interface {
	OnTransition(ev trace.Event)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(ev trace.Event)

// OnTransition calls f(ev).
func (f ListenerFunc) OnTransition(ev trace.Event) { f(ev) }

// BlockSet is the per-instance set of entrypoint blocks the coordinator
// maintains for one testing instance.
type BlockSet struct {
	widgets map[ui.Signature]map[ui.WidgetPath]bool
	members map[ui.Signature]bool
	// allowedActivities, when non-nil, restricts the instance to a fixed
	// Activity subset — the ParaAim-style activity-granularity baseline of
	// the preliminary study (Section 3.3). TaOPT itself never sets it.
	allowedActivities map[string]bool
}

// NewBlockSet returns an empty block set.
func NewBlockSet() *BlockSet {
	return &BlockSet{
		widgets: make(map[ui.Signature]map[ui.WidgetPath]bool),
		members: make(map[ui.Signature]bool),
	}
}

// RestrictActivities confines the instance to the given Activity names.
// Passing an empty list clears the restriction.
func (b *BlockSet) RestrictActivities(allowed []string) {
	if len(allowed) == 0 {
		b.allowedActivities = nil
		return
	}
	b.allowedActivities = make(map[string]bool, len(allowed))
	for _, a := range allowed {
		b.allowedActivities[a] = true
	}
}

// ActivityAllowed reports whether screens of the given Activity may be
// explored by this instance.
func (b *BlockSet) ActivityAllowed(activity string) bool {
	return b.allowedActivities == nil || b.allowedActivities[activity]
}

// BlockWidget marks the element at path on screens with signature from as a
// blocked entrypoint: the driver leaves it out of every View of them.
func (b *BlockSet) BlockWidget(from ui.Signature, path ui.WidgetPath) {
	m, ok := b.widgets[from]
	if !ok {
		m = make(map[ui.WidgetPath]bool)
		b.widgets[from] = m
	}
	m[path] = true
}

// BlockMember marks an abstract screen as belonging to a blocked subspace:
// if the tool lands there anyway (through an edge TaOPT has not observed
// yet), the driver steers it back out.
func (b *BlockSet) BlockMember(sig ui.Signature) { b.members[sig] = true }

// BlockedWidgets returns the blocked element paths for screens with
// signature from (nil if none).
func (b *BlockSet) BlockedWidgets(from ui.Signature) map[ui.WidgetPath]bool {
	return b.widgets[from]
}

// IsMember reports whether sig lies inside a blocked subspace.
func (b *BlockSet) IsMember(sig ui.Signature) bool { return b.members[sig] }

// WidgetBlockCount returns the total number of blocked (screen, element)
// pairs; used by tests and reports.
func (b *BlockSet) WidgetBlockCount() int {
	n := 0
	for _, m := range b.widgets {
		n += len(m)
	}
	return n
}

// MemberCount returns the number of blocked member screens.
func (b *BlockSet) MemberCount() int { return len(b.members) }

// maxSteerSteps bounds the Back presses used to leave a blocked subspace
// before the driver falls back to relaunching the app.
const maxSteerSteps = 8

// Driver attaches Toller to one testing instance.
type Driver struct {
	emu       *device.Emulator
	book      *trace.Book
	log       *trace.Log
	blocks    *BlockSet
	listeners []Listener
	lastSig   ui.Signature
}

// NewDriver attaches to emu, sharing the campaign-wide screen book, and
// emits the initial launch transition at virtual time now.
func NewDriver(emu *device.Emulator, book *trace.Book, now sim.Duration) *Driver {
	d := &Driver{
		emu:    emu,
		book:   book,
		log:    &trace.Log{},
		blocks: NewBlockSet(),
	}
	d.emit(trace.Event{
		Instance: emu.ID,
		At:       now,
		Action:   trace.Action{Kind: trace.ActionLaunch},
		To:       d.observe(),
		Activity: emu.Activity(),
	})
	return d
}

// Instance returns the underlying instance ID.
func (d *Driver) Instance() int { return d.emu.ID }

// Emulator exposes the wrapped instance for coverage/crash collection.
func (d *Driver) Emulator() *device.Emulator { return d.emu }

// Trace returns the instance's transition log.
func (d *Driver) Trace() *trace.Log { return d.log }

// Blocks returns the driver's mutable block set.
func (d *Driver) Blocks() *BlockSet { return d.blocks }

// Subscribe registers a transition listener.
func (d *Driver) Subscribe(l Listener) { d.listeners = append(d.listeners, l) }

func (d *Driver) emit(ev trace.Event) {
	d.log.Append(ev)
	for _, l := range d.listeners {
		l.OnTransition(ev)
	}
}

// observe reads the current screen's signature into lastSig and records the
// screen in the book, which renders it only on the signature's first sight.
func (d *Driver) observe() ui.Signature {
	d.lastSig = d.emu.Signature()
	d.book.Observe(d.lastSig, d.emu.Render)
	return d.lastSig
}

// View observes the current screen and enumerates the actions available to
// the tool, leaving out the screen's blocked entrypoints. Observing on every
// call also picks up relaunches made outside the driver.
func (d *Driver) View() View {
	sig := d.observe()
	return View{Activity: d.emu.Activity(), Sig: sig, Actions: d.emu.Actions(d.blocks.BlockedWidgets(sig))}
}

// Perform executes a tool-chosen action at virtual time now, records the
// transition, enforces subspace blocks, and returns the device result plus
// the total latency consumed (action + any enforcement steering).
func (d *Driver) Perform(a device.Action, now sim.Duration) device.Result {
	from := d.lastSig
	res := d.emu.Perform(a, now)
	d.emit(trace.Event{
		Instance: d.emu.ID,
		At:       now + res.Latency,
		Action:   trace.Action{Kind: a.Kind, Widget: a.Path},
		From:     from,
		To:       d.observe(),
		Activity: d.emu.Activity(),
		Crashed:  res.Crashed,
	})
	res.Latency += d.steerIfBlocked(now + res.Latency)
	return res
}

// blockedHere reports whether the instance currently sits somewhere it must
// not be: inside a blocked subspace or on a disallowed Activity.
func (d *Driver) blockedHere() bool {
	return d.blocks.IsMember(d.lastSig) || !d.blocks.ActivityAllowed(d.emu.Activity())
}

// steerIfBlocked forces the instance out of a blocked subspace. It returns
// the extra latency consumed.
func (d *Driver) steerIfBlocked(now sim.Duration) sim.Duration {
	var extra sim.Duration
	for step := 0; d.blockedHere(); step++ {
		from := d.lastSig
		var res device.Result
		if step < maxSteerSteps {
			res = d.emu.Perform(device.Action{Kind: trace.ActionBack, Widget: -1}, now+extra)
		} else {
			d.emu.Relaunch()
			res = device.Result{Latency: device.MaxRestartLatency}
		}
		extra += res.Latency
		d.emit(trace.Event{
			Instance: d.emu.ID,
			At:       now + extra,
			Action:   trace.Action{Kind: trace.ActionBack},
			From:     from,
			To:       d.observe(),
			Activity: d.emu.Activity(),
			Enforced: true,
		})
		if step >= maxSteerSteps {
			break
		}
	}
	return extra
}
