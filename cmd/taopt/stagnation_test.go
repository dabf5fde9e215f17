package main

import (
	"reflect"
	"strings"
	"testing"

	"taopt/internal/core"
	"taopt/internal/harness"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// TestStagnationNeedsCoordinatedSetting pins -stagnation's contract: a TaOPT
// setting gets its mode's defaults with the window overridden, and every
// setting that runs no coordinator is rejected instead of ignoring the flag.
func TestStagnationNeedsCoordinatedSetting(t *testing.T) {
	for _, name := range scenario.SettingNames() {
		st, err := harness.ParseSetting(name)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := stagnationConfig(st, 3)
		mode, coordinated := st.Mode()
		if !coordinated {
			if err == nil || !strings.Contains(err.Error(), "-setting "+name+" runs no coordinator") {
				t.Errorf("%s: stagnationConfig error = %v, want a usage error naming the setting", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := core.DefaultConfig(mode)
		want.Stagnation = 3 * sim.Duration(60e9)
		if !reflect.DeepEqual(*cc, want) {
			t.Errorf("%s: config %+v, want %+v", name, *cc, want)
		}
	}
}
