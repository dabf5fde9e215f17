package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags declares -cpuprofile and -memprofile on the default flag
// set. Pass their values to StartProfiles after flag.Parse.
func ProfileFlags() (cpuPath, memPath *string) {
	return flag.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		flag.String("memprofile", "", "write a pprof heap profile to this file")
}

// StartProfiles starts the pprof profiles the command binaries expose via
// -cpuprofile/-memprofile. Either path may be empty to skip that profile.
// The returned stop function finishes the CPU profile and writes the heap
// profile; call it exactly once on the way out (it is safe when both paths
// were empty).
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cli: creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: starting cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("cli: creating mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("cli: writing mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
