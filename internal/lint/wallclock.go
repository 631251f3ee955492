package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockAnalyzer forbids ambient inputs in sim-critical and
// deterministic-only packages: wall clock reads, environment lookups, and
// the global math/rand source. A simulation run must be a pure function of
// its configuration — simulated time comes from sim.Engine.Now and all
// randomness from seeded sim.Rand streams (or an explicitly constructed,
// seeded *rand.Rand plumbed through config). Methods on a *rand.Rand value
// are allowed; the package-level convenience functions draw from the
// shared, unseeded global source and are not. Host parallelism
// (runtime.GOMAXPROCS / runtime.NumCPU) is ambient too: a worker count
// derived inside sim code would make behaviour depend on the machine, so
// the CLIs read it once at entry and plumb the value down.
// The serving tier follows the same discipline with an injected clock
// (serve.Options.Now), which keeps quota refill and job timing testable
// under a fake clock.
//
// In sim-critical packages other than internal/sim, sync/atomic is
// forbidden too: an atomic word is state another goroutine can see, and
// runner.Map runs many machines on concurrent goroutines. The only atomic a
// machine needs is internal/sim's Canceler, the word another goroutine sets
// to stop a run. (Deterministic-only packages run their own worker pools
// and may use atomics freely.)
var wallClockAnalyzer = &Analyzer{
	Name:      "wallclock",
	Doc:       "forbids time.Now/Since, os.Getenv, runtime.GOMAXPROCS, and global math/rand in sim-critical and deterministic-only packages, and sync/atomic in sim-critical packages outside internal/sim",
	WaiverKey: "wallclock",
	Run:       runWallClock,
}

// forbiddenCalls maps package path -> function name -> the complaint. An
// empty inner map means every package-level function is forbidden except
// those in allowedRand (seeded-source constructors).
var forbiddenWallClock = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock; use the engine's simulated clock (sim.Engine.Now)",
		"Since": "reads the wall clock; use the engine's simulated clock (sim.Engine.Now)",
		"Until": "reads the wall clock; use the engine's simulated clock (sim.Engine.Now)",
	},
	"os": {
		"Getenv":    "reads the environment; plumb configuration through Config instead",
		"LookupEnv": "reads the environment; plumb configuration through Config instead",
		"Environ":   "reads the environment; plumb configuration through Config instead",
	},
	"runtime": {
		"GOMAXPROCS": "reads host parallelism inside sim code; read it once at CLI entry and plumb the value through config (shards auto-selection)",
		"NumCPU":     "reads host parallelism inside sim code; read it once at CLI entry and plumb the value through config (shards auto-selection)",
	},
}

// globalRandPkgs are the math/rand flavors whose package-level functions
// draw from a shared global source (unseeded, or per-process seeded —
// either way not reproducible per run-configuration).
var globalRandPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// allowedRand are math/rand package-level names that construct explicitly
// seeded sources rather than drawing from the global one.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	// Type names, usable in declarations like *rand.Rand.
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func runWallClock(mod *Module, opts Options, report ReportFn) {
	for _, pkg := range mod.Pkgs {
		critical := opts.Critical(pkg.Path)
		if !critical && !opts.Deterministic(pkg.Path) {
			continue
		}
		noAtomics := critical && !strings.HasSuffix(pkg.Path, "internal/sim")
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				path, name := pn.Imported().Path(), sel.Sel.Name
				if path == "sync/atomic" && noAtomics {
					report(pkg, sel.Pos(), path+"."+name+
						" in a sim-critical package; atomics are confined to internal/sim, and machine state stays on its goroutine")
					return true
				}
				if msg, bad := forbiddenWallClock[path][name]; bad {
					report(pkg, sel.Pos(), path+"."+name+" "+msg)
					return true
				}
				if globalRandPkgs[path] && !allowedRand[name] {
					report(pkg, sel.Pos(),
						path+"."+name+" uses the global rand source; use a seeded *rand.Rand (or sim.Rand) plumbed through config")
				}
				return true
			})
		}
	}
}
