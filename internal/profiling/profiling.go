// Package profiling wires the standard -cpuprofile / -memprofile flags
// into the repository's commands (ROADMAP needle 1: wall-clock
// profiling one flag away). The profiles describe the Go process, not
// the simulated device; inspect them with `go tool pprof`.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and arranges for a heap
// profile to be written to memPath; an empty path disables that
// profile. The returned stop function ends the CPU profile and writes
// the heap profile — call it once, when the measured work is done
// (deferred from main; a log.Fatal exit writes no profile).
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		runtime.GC() // materialise up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("profiling: write heap profile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		return nil
	}, nil
}
