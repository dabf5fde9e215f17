package toller

import "taopt/internal/device"

// Emulator exposes the wrapped instance for coverage/crash collection.
func (d *Driver) Emulator() *device.Emulator { return d.emu }
