// Package prof is the shared pprof plumbing for the CLIs: one call wires
// the standard -cpuprofile/-memprofile/-mutexprofile/-blockprofile flags,
// so every command profiles the same way and `go tool pprof` works on the
// output unchanged.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile, -memprofile, -mutexprofile and
// -blockprofile on the default flag set. Call the returned start after
// flag.Parse: it starts the profiles the flags name, as Start does.
func Flags() (start func() (stop func() error, err error)) {
	cpu := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	mem := flag.String("memprofile", "", "write a pprof heap profile to this file")
	mutex := flag.String("mutexprofile", "", "write a pprof mutex-contention profile to this file")
	block := flag.String("blockprofile", "", "write a pprof blocking profile to this file")
	return func() (func() error, error) { return Start(*cpu, *mem, *mutex, *block) }
}

// Start begins CPU profiling to cpuPath and arranges end-of-run
// snapshots: a heap profile at memPath, a mutex-contention profile at
// mutexPath, and a blocking (off-CPU wait) profile at blockPath. Any
// path may be empty to skip that profile. Contention profiling is
// enabled only while a mutex/block path is armed — the sampling rates
// are restored to their defaults at stop, so profiled and unprofiled
// runs of the hot paths otherwise behave identically. The returned stop
// function flushes and closes the profiles — call it exactly once, on
// every exit path that should produce output (a deferred call in main
// does not run under os.Exit).
func Start(cpuPath, memPath, mutexPath, blockPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("prof: %w", err)
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if memPath != "" {
			runtime.GC() // settle live-heap numbers before the snapshot
			keep(writeLookup(memPath, "heap"))
		}
		if mutexPath != "" {
			keep(writeLookup(mutexPath, "mutex"))
			runtime.SetMutexProfileFraction(0)
		}
		if blockPath != "" {
			keep(writeLookup(blockPath, "block"))
			runtime.SetBlockProfileRate(0)
		}
		return firstErr
	}, nil
}

// writeLookup snapshots one named runtime/pprof profile to path.
func writeLookup(path, profile string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
