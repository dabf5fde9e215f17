// Package wire is buslayer testdata; the harness checks it under the
// import path taopt/internal/bus/wire. The protocol recorder may use its
// parent seam and the base types it records. Reaching into core inverts the
// layering, device shortcuts the seam, and faults belongs to the
// bus.WithFaults decorator — the recorder must stay fault-agnostic.
package wire

import (
	_ "taopt/internal/bus"
	_ "taopt/internal/core"   // want "taopt/internal/bus/wire must not import taopt/internal/core"
	_ "taopt/internal/device" // want "taopt/internal/bus/wire must not import taopt/internal/device"
	_ "taopt/internal/faults" // want "taopt/internal/bus/wire must not import taopt/internal/faults"
	_ "taopt/internal/sim"
	_ "taopt/internal/trace"
	_ "taopt/internal/ui"
)
