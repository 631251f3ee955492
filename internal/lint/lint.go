// Package lint implements vsnoop-lint, a from-scratch static-analysis
// suite (stdlib only: go/parser, go/ast, go/types, go/importer) guarding
// determinism, the property the simulator's correctness story rests on
// that no single run can see whole: a run is a pure function of its
// configuration. Two analyzers, both plain type checks over the syntax:
//
//   - maprange forbids iteration over a Go map, whose order the runtime
//     randomizes per run.
//   - wallclock forbids ambient inputs: wall-clock time, the environment,
//     host parallelism and the global math/rand source. It also confines
//     sync/atomic in the critical packages to internal/sim, whose Canceler
//     is the one word another goroutine may set.
//
// Both apply to the sim-critical packages and to the deterministic-only
// packages (the serving tier, the runner and the CLIs), whose
// content-addressed memoization and journal replay depend on the code
// around the simulator being order- and clock-independent too.
//
// Everything else is guarded at run time instead. Hot-path allocation is
// held by allocation gates (TestSteadyStateAllocs and the per-package
// AllocsPerRun tests), handler isolation by go test -race over concurrent
// sweeps of every handler family, and the timing of cross-domain effects
// by the pinned statistics digests (TestStatsDigests, TestGoldenResults).
//
// Findings are suppressed only by an explicit waiver comment with a
// mandatory reason, placed on the offending line or the line above:
//
//	//lint:<key> <reason>
//
// where <key> is the analyzer's waiver key (ordered, wallclock). A
// waiver without a reason is itself a finding and
// fails the build, and so is a stale waiver — one whose analyzer ran but
// that suppressed nothing — so waivers document live judgment calls; they
// neither hide problems nor outlive them.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation, positioned for editors and CI logs.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Pkg      string `json:"pkg"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// ReportFn receives one finding from an analyzer, positioned by pos.
type ReportFn func(pkg *Package, pos token.Pos, msg string)

// Analyzer is one lint rule set.
type Analyzer struct {
	Name      string // analyzer name, used in findings and -enable/-disable
	Doc       string // one-line description
	WaiverKey string // the //lint:<key> that suppresses its findings
	Run       func(mod *Module, opts Options, report ReportFn)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{mapRangeAnalyzer, wallClockAnalyzer}
}

// CriticalDirs are the sim-critical package directories (relative to the
// module root) in which nondeterminism is forbidden: everything that
// executes inside, or feeds state to, the discrete-event simulation.
var CriticalDirs = []string{
	"internal/sim", "internal/system", "internal/token", "internal/mesh",
	"internal/cache", "internal/core", "internal/mem", "internal/memctrl",
	"internal/stats", "internal/check", "internal/fault", "internal/hv",
	"internal/regionscout",
}

// DefaultCritical returns the critical-package predicate for a module: the
// import path's module-relative suffix must be one of CriticalDirs.
func DefaultCritical(modPath string) func(pkgPath string) bool {
	set := make(map[string]bool, len(CriticalDirs))
	for _, d := range CriticalDirs {
		set[modPath+"/"+d] = true
	}
	return func(p string) bool { return set[p] }
}

// DeterministicDirs are the deterministic-only package directories: code
// that must stay a pure function of its inputs (no map-order dependence, no
// ambient clock/env reads) but legitimately uses goroutines, channels, and
// atomics for its own concurrency, so the atomic confinement does not
// apply. The serving tier lives here: its memoization story is
// "same config hash ⇒ same stored bytes", which only holds if the code
// around the simulator is as deterministic as the simulator itself — while
// its worker pool, singleflight, and metrics are exactly the kind of
// concurrency sim code must not hold. The runner (worker
// pool around whole simulations) and the three mains (vsnoop-sim,
// vsnoop-sweep, vsnoop-report) are here too: they assemble configs, shard
// plans, and reports whose bytes feed the golden files and the serve tier's
// content-addressed memoization, so map-order or clock dependence in them
// corrupts exactly the artifacts the sim's determinism story certifies.
var DeterministicDirs = []string{
	"internal/serve", "internal/runner",
	"cmd/vsnoop-sim", "cmd/vsnoop-sweep", "cmd/vsnoop-report",
}

// DefaultDeterministic returns the deterministic-only predicate for a
// module, mirroring DefaultCritical over DeterministicDirs.
func DefaultDeterministic(modPath string) func(pkgPath string) bool {
	set := make(map[string]bool, len(DeterministicDirs))
	for _, d := range DeterministicDirs {
		set[modPath+"/"+d] = true
	}
	return func(p string) bool { return set[p] }
}

// Options configures a Run.
type Options struct {
	// Critical reports whether a package is sim-critical (maprange and
	// wallclock apply there, atomic confinement included). Nil means
	// DefaultCritical(mod.Path).
	Critical func(pkgPath string) bool
	// Deterministic reports whether a package is deterministic-only:
	// maprange and wallclock apply, but not the atomic confinement — the
	// package may use goroutines, channels, and atomics freely. Nil
	// means DefaultDeterministic(mod.Path).
	Deterministic func(pkgPath string) bool
	// Selected filters which packages findings are reported for (the
	// module is always loaded and type-checked whole). Nil selects every
	// package.
	Selected func(pkgPath string) bool
	// Disabled names analyzers to skip; Enabled, when non-empty, restricts
	// the run to exactly those analyzers.
	Enabled, Disabled map[string]bool
}

func (o *Options) runs(name string) bool {
	if o.Disabled[name] {
		return false
	}
	if len(o.Enabled) > 0 {
		return o.Enabled[name]
	}
	return true
}

// Run executes every enabled analyzer over the module and returns the
// surviving findings: waived findings are dropped, and waiver-grammar
// violations (unknown key, missing reason) are appended as findings of the
// pseudo-analyzer "waiver". The result is sorted by position.
func Run(mod *Module, opts Options) []Finding {
	if opts.Critical == nil {
		opts.Critical = DefaultCritical(mod.Path)
	}
	if opts.Deterministic == nil {
		opts.Deterministic = DefaultDeterministic(mod.Path)
	}
	if opts.Selected == nil {
		opts.Selected = func(string) bool { return true }
	}
	ws := collectWaivers(mod)

	var out []Finding
	ranKey := make(map[string]bool)
	for _, a := range Analyzers() {
		if !opts.runs(a.Name) {
			continue
		}
		ranKey[a.WaiverKey] = true
		a := a
		a.Run(mod, opts, func(pkg *Package, pos token.Pos, msg string) {
			if !opts.Selected(pkg.Path) {
				return
			}
			p := mod.Fset.Position(pos)
			if ws.covers(a.WaiverKey, p) {
				return
			}
			out = append(out, Finding{
				Analyzer: a.Name, Pkg: pkg.Path,
				File: relFile(mod, p.Filename), Line: p.Line, Col: p.Column,
				Message: msg,
			})
		})
	}
	problems := append(ws.problems, ws.stale(func(key string) bool { return ranKey[key] })...)
	for _, pr := range problems {
		if !opts.Selected(pr.pkg) {
			continue
		}
		out = append(out, Finding{
			Analyzer: "waiver", Pkg: pr.pkg,
			File: relFile(mod, pr.pos.Filename), Line: pr.pos.Line, Col: pr.pos.Column,
			Message: pr.msg,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ExitCode maps a finding list to the driver's process exit code: 0 clean,
// 1 findings. (Load and type errors exit 2, handled by the driver.)
func ExitCode(findings []Finding) int {
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relFile shortens an absolute filename to be module-relative when possible.
func relFile(mod *Module, name string) string {
	if rel, err := filepath.Rel(mod.Dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}
