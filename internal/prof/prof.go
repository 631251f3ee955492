// Package prof wires pprof profile capture into the command-line drivers:
// each command registers -cpuprofile/-memprofile flags and brackets its run
// with Start/Stop, so a slow sweep can be diagnosed with `go tool pprof`
// without modifying the simulator.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the profile destinations registered by AddFlags.
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string

	cpuFile   *os.File
	traceFile *os.File
}

// AddFlags registers -cpuprofile, -memprofile and -trace on fs (the
// default flag.CommandLine when fs is nil).
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to `file` at exit")
	fs.StringVar(&f.Trace, "trace", "", "write a Go runtime execution trace to `file` (inspect with go tool trace)")
}

// Start begins CPU profiling when -cpuprofile was given. Call Stop (usually
// via defer) before the process exits; note defers do not run across
// os.Exit, so commands that exit non-zero must call Stop explicitly first.
func (f *Flags) Start() error {
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return fmt.Errorf("prof: start cpu profile: %w", err)
		}
		f.cpuFile = file
	}
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			f.Stop()
			return fmt.Errorf("prof: %w", err)
		}
		if err := trace.Start(file); err != nil {
			file.Close()
			f.Stop()
			return fmt.Errorf("prof: start execution trace: %w", err)
		}
		f.traceFile = file
	}
	return nil
}

// Stop finalizes both profiles: it flushes the CPU profile (if one is
// running) and writes the allocation profile when -memprofile was given.
// It is safe to call more than once.
func (f *Flags) Stop() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		f.cpuFile.Close()
		f.cpuFile = nil
	}
	if f.traceFile != nil {
		trace.Stop()
		f.traceFile.Close()
		f.traceFile = nil
	}
	if f.MemProfile != "" {
		file, err := os.Create(f.MemProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prof:", err)
			return
		}
		defer file.Close()
		runtime.GC() // materialize the final live heap
		if err := pprof.Lookup("allocs").WriteTo(file, 0); err != nil {
			fmt.Fprintln(os.Stderr, "prof:", err)
		}
		f.MemProfile = ""
	}
}
