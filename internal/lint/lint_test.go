package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureOptions treats every fixture package as sim-critical, so the
// critical-only analyzers apply to the testdata packages.
func fixtureOptions() Options {
	return Options{Critical: func(string) bool { return true }}
}

// want is one expectation parsed from a `// want "regex"` comment: a
// finding must appear on the same line with a message matching the regex.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// loadFixture loads testdata/src/<name> as a synthetic module.
func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := LoadTree(filepath.Join("testdata", "src", name), "fix/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return mod
}

// checkFixture runs the full suite over one fixture with every package
// treated as sim-critical; checkFixtureWith does the same under caller
// scoping. Findings are verified against the fixture's want comments:
// every finding needs a matching want on its line, and every want must be
// consumed.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	checkFixtureWith(t, name, fixtureOptions())
}

func checkFixtureWith(t *testing.T, name string, opts Options) {
	t.Helper()
	mod := loadFixture(t, name)

	var wants []*want
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					p := mod.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regex %q: %v", p.Filename, p.Line, m[1], err)
						}
						wants = append(wants, &want{file: relFile(mod, p.Filename), line: p.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	findings := Run(mod, opts)
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapRangeFixture(t *testing.T) { checkFixture(t, "maprange") }

// TestWallClockFixture covers the ambient inputs: wall clock, environment,
// global rand, and host parallelism.
func TestWallClockFixture(t *testing.T) { checkFixture(t, "wallclock") }

// TestShardAtomicFixture covers wallclock's atomic confinement: sync/atomic
// is clean in the fixture's internal/sim package and flagged everywhere else.
func TestShardAtomicFixture(t *testing.T) { checkFixture(t, "shardatomic") }

// TestIRFlowFixture covers maprange on the flow shapes a dataflow check
// could call order-free: every map range is a finding, a collect-then-sort
// key harvest included.
func TestIRFlowFixture(t *testing.T) { checkFixture(t, "irflow") }

// TestStaleWaiverFixture covers stale-waiver detection: used waivers are
// silent, waivers that suppress nothing are findings at the waiver line.
func TestStaleWaiverFixture(t *testing.T) { checkFixture(t, "stalewaiver") }

// TestStaleOnlyForRanAnalyzers pins the interaction with -enable/-disable:
// a waiver is only stale relative to an analyzer that actually ran, so a
// restricted run reports the stale waivers of its own key and must not
// condemn waivers it never evaluated.
func TestStaleOnlyForRanAnalyzers(t *testing.T) {
	mod := loadFixture(t, "stalewaiver")
	for _, a := range Analyzers() {
		opts := fixtureOptions()
		opts.Enabled = map[string]bool{a.Name: true}
		fs := Run(mod, opts)
		if len(fs) != 1 || !strings.Contains(fs[0].Message, "stale waiver //lint:"+a.WaiverKey+" ") {
			t.Errorf("%s-only run: want exactly the stale //lint:%s waiver, got %v", a.Name, a.WaiverKey, fs)
		}
	}
}

// TestSuiteComposition pins the analyzer roster and waiver keys the CI lint
// job and the waiver grammar depend on.
func TestSuiteComposition(t *testing.T) {
	wantNames := []string{"maprange", "wallclock"}
	wantKeys := []string{"ordered", "wallclock"}
	as := Analyzers()
	if len(as) != len(wantNames) {
		t.Fatalf("Analyzers() = %d entries, want %d", len(as), len(wantNames))
	}
	for i, a := range as {
		if a.Name != wantNames[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.WaiverKey != wantKeys[i] {
			t.Errorf("Analyzers()[%d].WaiverKey = %q, want %q", i, a.WaiverKey, wantKeys[i])
		}
	}
}

// TestPartTransferFixture covers the cross-domain ownership-transfer
// patterns of the partitioned machine: prebound depart/arrive/ack
// handlers and a handler literal, and the overlay map iterations the suite
// must catch in that code.
func TestPartTransferFixture(t *testing.T) { checkFixture(t, "parttransfer") }

// TestServeScopeFixture covers the deterministic-only package class, the
// scoping the real module applies to internal/serve: goroutines, channels,
// mutexes, atomics on arbitrary structs, and package-level state draw no
// findings (the atomic confinement does not apply), while map iteration and
// ambient inputs are still flagged by maprange and wallclock.
func TestServeScopeFixture(t *testing.T) {
	checkFixtureWith(t, "servescope", Options{
		Critical:      func(string) bool { return false },
		Deterministic: func(string) bool { return true },
	})
}

// TestServeScopeNotCovered is the control: with the fixture in neither
// class, nothing at all is reported — the deterministic-only findings in
// TestServeScopeFixture really do come from the new scoping.
func TestServeScopeNotCovered(t *testing.T) {
	mod := loadFixture(t, "servescope")
	opts := Options{
		Critical:      func(string) bool { return false },
		Deterministic: func(string) bool { return false },
	}
	if fs := Run(mod, opts); len(fs) != 0 {
		t.Errorf("unscoped fixture must be silent, got %v", fs)
	}
}

// TestWaiverGrammar checks the negative fixture: a reason-less waiver and a
// misspelled key are findings themselves AND fail to suppress the map
// iterations they sit on, so the driver exits nonzero.
func TestWaiverGrammar(t *testing.T) {
	mod := loadFixture(t, "waiverbad")
	findings := Run(mod, fixtureOptions())

	countBy := make(map[string]int)
	for _, f := range findings {
		countBy[f.Analyzer]++
	}
	if countBy["waiver"] != 2 {
		t.Errorf("want 2 waiver-grammar findings, got %d (all: %v)", countBy["waiver"], findings)
	}
	if countBy["maprange"] != 2 {
		t.Errorf("malformed waivers must not suppress: want 2 maprange findings, got %d (all: %v)",
			countBy["maprange"], findings)
	}
	var sawNoReason, sawUnknownKey bool
	for _, f := range findings {
		if f.Analyzer != "waiver" {
			continue
		}
		if strings.Contains(f.Message, "lacks a reason") {
			sawNoReason = true
		}
		if strings.Contains(f.Message, "unknown waiver key sorted") {
			sawUnknownKey = true
		}
	}
	if !sawNoReason {
		t.Error("missing finding for the reason-less //lint:ordered")
	}
	if !sawUnknownKey {
		t.Error("missing finding for the misspelled //lint:sorted key")
	}
	if got := ExitCode(findings); got != 1 {
		t.Errorf("driver must exit nonzero on findings: ExitCode = %d, want 1", got)
	}
}

// TestExitCode pins the exit-code contract the CI lint job relies on.
func TestExitCode(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Errorf("ExitCode(nil) = %d, want 0", got)
	}
	if got := ExitCode([]Finding{{Analyzer: "maprange"}}); got != 1 {
		t.Errorf("ExitCode(one finding) = %d, want 1", got)
	}
}

// TestAnalyzerSelection checks -enable/-disable semantics: restricting the
// run to maprange silences the wallclock fixture, and disabling wallclock
// does the same.
func TestAnalyzerSelection(t *testing.T) {
	mod := loadFixture(t, "wallclock")

	opts := fixtureOptions()
	opts.Enabled = map[string]bool{"maprange": true}
	if fs := Run(mod, opts); len(fs) != 0 {
		t.Errorf("enable=maprange on the wallclock fixture: want 0 findings, got %v", fs)
	}

	opts = fixtureOptions()
	opts.Disabled = map[string]bool{"wallclock": true}
	if fs := Run(mod, opts); len(fs) != 0 {
		t.Errorf("disable=wallclock on the wallclock fixture: want 0 findings, got %v", fs)
	}
}

// TestRepoClean is the HEAD-clean acceptance gate: the real module must
// produce zero findings (true problems fixed, judgment calls waived with
// reasons). It type-checks the whole repository, so it is the slowest test
// in the package.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings := Run(mod, Options{})
	for _, f := range findings {
		t.Errorf("repository not lint-clean: %s", f)
	}
}
