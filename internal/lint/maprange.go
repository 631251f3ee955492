package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"vsnoop/internal/lint/ir"
)

// mapRangeAnalyzer flags `for ... range` over map-typed expressions in
// sim-critical and deterministic-only packages. Go randomizes map iteration
// order per run, so a map range in a stats merge, a destination-set scan,
// or any other sim-visible path silently breaks bit-identical replay — the
// property the golden rows and the K∈{1,2,4} determinism suites exist to
// protect. In the serving tier the same rule protects journal/replay
// equivalence: recovery must observe the exact record order a live run
// produced.
//
// One shape is exempted because the IR proves it order-free — the verified
// key harvest:
//
//	for k := range m {
//		s = append(s, k)
//	}
//	sort.Slice(s, ...)
//
// The loop body is exactly one append of the key, and the first statement
// of the loop's join block sorts the harvested slice. Map keys are unique,
// so the sorted slice is a pure function of the key SET (the comparator is
// trusted to be a total order over the keys — the same judgment the old
// waivers asserted in prose, now checked structurally). Anything else —
// value use, extra statements, a use of the slice before the sort — gets
// the finding; loops whose effect cannot depend on order for deeper
// reasons (a commutative sum) still carry a //lint:ordered waiver.
var mapRangeAnalyzer = &Analyzer{
	Name:      "maprange",
	Doc:       "forbids map iteration in sim-critical and deterministic-only packages (nondeterministic order); a collect-then-sort key harvest is verified and exempt",
	WaiverKey: "ordered",
	Run:       runMapRange,
}

func runMapRange(mod *Module, opts Options, report ReportFn) {
	for _, pkg := range mod.Pkgs {
		if !opts.Critical(pkg.Path) && !opts.Deterministic(pkg.Path) {
			continue
		}
		pkg := pkg
		// Each function body is scanned against its own IR (a nested
		// literal is its own dataflow world, so it gets its own pass).
		var scanFn func(node ast.Node, body *ast.BlockStmt)
		scanFn = func(node ast.Node, body *ast.BlockStmt) {
			var fnir *ir.Func
			built := false
			getIR := func() *ir.Func {
				if !built {
					built = true
					switch d := node.(type) {
					case *ast.FuncDecl:
						fnir = ir.BuildDecl(pkg.Info, d)
					case *ast.FuncLit:
						fnir = ir.BuildLit(pkg.Info, d)
					}
				}
				return fnir
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncLit:
					scanFn(x, x.Body)
					return false
				case *ast.RangeStmt:
					t := pkg.Info.TypeOf(x.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					if verifiedHarvest(pkg.Info, getIR(), x) {
						return true
					}
					report(pkg, x.For,
						"iteration over map "+types.ExprString(x.X)+
							" has nondeterministic order; sort the keys, use a dense slice, or waive with //lint:ordered <reason>")
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					scanFn(fd, fd.Body)
				}
			}
		}
	}
}

// verifiedHarvest reports whether rs is the exempt collect-then-sort key
// harvest (see the analyzer doc), proven over the enclosing function's IR.
func verifiedHarvest(info *types.Info, fn *ir.Func, rs *ast.RangeStmt) bool {
	if fn == nil || rs.Value != nil || rs.Key == nil {
		return false
	}
	keyVar := identVar(info, rs.Key)
	if keyVar == nil {
		return false
	}
	// Body: exactly `s = append(s, k)` for a local slice s.
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	sliceVar := identVar(info, as.Lhs[0])
	if sliceVar == nil || isPackageLevel(sliceVar) {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || call.Ellipsis != token.NoPos || len(call.Args) != 2 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("append") {
		return false
	}
	if identVar(info, call.Args[0]) != sliceVar || identVar(info, call.Args[1]) != keyVar {
		return false
	}
	// The loop's join block must begin with the sort of s: nothing can
	// observe the harvested order first.
	head := findRangeHead(fn, rs)
	if head == nil || len(head.Succs) != 2 {
		return false
	}
	join := head.Succs[1]
	if len(join.Instrs) == 0 {
		return false
	}
	first := join.Instrs[0]
	if first.Op != ir.OpEval {
		return false
	}
	sortCall, ok := ast.Unparen(first.X).(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	if !isSortCall(info, sortCall) {
		return false
	}
	return identVar(info, sortCall.Args[0]) == sliceVar
}

// findRangeHead locates the block holding rs's OpRange instruction.
func findRangeHead(fn *ir.Func, rs *ast.RangeStmt) *ir.Block {
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpRange && ins.Stmt == rs {
				return b
			}
		}
	}
	return nil
}

// sortFuncs are the stdlib entry points accepted as the harvesting sort.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// isSortCall matches a qualified call to one of sortFuncs.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	return sortFuncs[pn.Imported().Path()][sel.Sel.Name]
}

// identVar resolves a plain identifier expression to its variable object.
func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
