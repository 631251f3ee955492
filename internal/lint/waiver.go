package lint

import (
	"go/token"
	"strings"
)

// waiverPrefix introduces a suppression comment: //lint:<key> <reason>.
// The reason is mandatory — a bare //lint:<key> is itself a finding.
const waiverPrefix = "//lint:"

// waiverSet indexes every well-formed waiver by (key, file, line) and
// collects grammar problems (unknown keys, missing reasons) as findings.
// Each well-formed waiver tracks whether it suppressed anything: a waiver
// whose analyzer ran but that covered zero findings is stale — the code it
// excused was fixed or deleted — and is itself reported, so waivers cannot
// quietly outlive their justification.
type waiverSet struct {
	byKey    map[string]map[string]map[int]*waiverRecord // key -> file -> line
	records  []*waiverRecord                             // in scan order
	problems []waiverProblem
}

type waiverRecord struct {
	key  string
	pkg  string
	pos  token.Position
	used bool
}

type waiverProblem struct {
	pkg string
	pos token.Position
	msg string
}

// covers reports whether a finding of the given waiver key at position p is
// suppressed: a well-formed waiver for that key on the same line (trailing
// comment) or the line directly above (preceding comment line). A covering
// waiver is marked used.
func (ws *waiverSet) covers(key string, p token.Position) bool {
	lines := ws.byKey[key][p.Filename]
	for _, ln := range [2]int{p.Line, p.Line - 1} {
		if r := lines[ln]; r != nil {
			r.used = true
			return true
		}
	}
	return false
}

// stale returns one problem per well-formed waiver that suppressed nothing,
// restricted to keys whose analyzer actually ran this invocation (a waiver
// for a disabled analyzer is not evidence of anything).
func (ws *waiverSet) stale(ran func(key string) bool) []waiverProblem {
	var out []waiverProblem
	for _, r := range ws.records {
		if r.used || !ran(r.key) {
			continue
		}
		out = append(out, waiverProblem{
			pkg: r.pkg, pos: r.pos,
			msg: "stale waiver //lint:" + r.key + " suppresses no findings; delete it",
		})
	}
	return out
}

// validKeys renders the known waiver keys for the unknown-key diagnostic.
func validKeys() string {
	var keys []string
	for _, a := range Analyzers() {
		keys = append(keys, a.WaiverKey)
	}
	return strings.Join(keys, ", ")
}

// collectWaivers scans every comment in the module for the waiver grammar.
func collectWaivers(mod *Module) *waiverSet {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.WaiverKey] = true
	}
	ws := &waiverSet{byKey: make(map[string]map[string]map[int]*waiverRecord)}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, waiverPrefix)
					if !ok {
						continue
					}
					key, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					p := mod.Fset.Position(c.Pos())
					switch {
					case !known[key]:
						ws.problems = append(ws.problems, waiverProblem{
							pkg: pkg.Path, pos: p,
							msg: "unknown waiver key " + strings.Trim(key, ":") + " (valid: " + validKeys() + ")",
						})
					case reason == "":
						ws.problems = append(ws.problems, waiverProblem{
							pkg: pkg.Path, pos: p,
							msg: "waiver //lint:" + key + " lacks a reason — every waiver must say why the rule does not apply",
						})
					default:
						perFile := ws.byKey[key]
						if perFile == nil {
							perFile = make(map[string]map[int]*waiverRecord)
							ws.byKey[key] = perFile
						}
						lines := perFile[p.Filename]
						if lines == nil {
							lines = make(map[int]*waiverRecord)
							perFile[p.Filename] = lines
						}
						r := &waiverRecord{key: key, pkg: pkg.Path, pos: p}
						lines[p.Line] = r
						ws.records = append(ws.records, r)
					}
				}
			}
		}
	}
	return ws
}
