package lint

import (
	"go/ast"
	"go/types"
)

// mapRangeAnalyzer flags `for ... range` over map-typed expressions in
// sim-critical and deterministic-only packages. Go randomizes map iteration
// order per run, so a map range in a stats merge, a destination-set scan,
// or any other sim-visible path silently breaks bit-identical replay — the
// property the golden rows and the statistics digests exist to protect. In
// the serving tier the same rule protects journal/replay equivalence:
// recovery must observe the exact record order a live run produced.
//
// The check is a plain type check with no exemptions: a loop whose effect
// cannot depend on the visit order (a commutative sum, a unique minimum)
// carries a //lint:ordered waiver that says why.
var mapRangeAnalyzer = &Analyzer{
	Name:      "maprange",
	Doc:       "forbids map iteration in sim-critical and deterministic-only packages (nondeterministic order)",
	WaiverKey: "ordered",
	Run:       runMapRange,
}

func runMapRange(mod *Module, opts Options, report ReportFn) {
	for _, pkg := range mod.Pkgs {
		if !opts.Critical(pkg.Path) && !opts.Deterministic(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(pkg, rs.For,
						"iteration over map "+types.ExprString(rs.X)+
							" has nondeterministic order; sort the keys, use a dense slice, or waive with //lint:ordered <reason>")
				}
				return true
			})
		}
	}
}
