package device

import (
	"slices"

	"taopt/internal/sim"
)

// LoggedIn reports whether the auto-login script has run.
func (e *Emulator) LoggedIn() bool { return e.loggedIn }

// Restarts returns how many times the app crashed and restarted.
func (e *Emulator) Restarts() int { return e.restarts }

// Active returns the active allocations sorted by instance ID.
func (f *Farm) Active() []*Allocation { return slices.Clone(f.active) }

// MachineTime returns the machine time this allocation has consumed by now.
func (al *Allocation) MachineTime(now sim.Duration) sim.Duration {
	if al.done {
		return al.Until - al.Since
	}
	return now - al.Since
}
