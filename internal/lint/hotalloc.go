package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotAllocAnalyzer enforces allocation discipline in functions annotated
// `//vsnoop:hotpath` (the PR-2 zero-alloc event kernel: engine schedule/
// pop/step, filter lookup/update, mesh route/deliver, token handlers). It
// flags the constructs that put values on the heap:
//
//   - closure literals that capture variables (each evaluation allocates)
//   - conversions of non-pointer-shaped concrete values to interfaces
//     (boxing; pointers, maps, chans, and funcs box for free)
//   - append outside the amortized self-append idiom x = append(x, ...),
//     and any append into a slice of interfaces (boxes every element)
//   - fmt.* calls (interface boxing plus formatting state)
//   - string concatenation (builds a fresh string)
//   - map literals and make(map...)
//   - allocation sites (&T{...}, new(T), &local) whose pointer later
//     escapes — returned, sent, stored outside a local, or passed to a
//     call — proven flow-sensitively over the internal/lint/ir CFG
//     (see hotescape.go)
//
// The analyzer checks only the annotated function's own body; callees are
// annotated (or not) on their own merits. Deliberate allocations carry a
// //lint:alloc waiver with the reason.
var hotAllocAnalyzer = &Analyzer{
	Name:      "hotalloc",
	Doc:       "flags allocation-causing constructs in //vsnoop:hotpath functions",
	WaiverKey: "alloc",
	Run:       runHotAlloc,
}

// hotPathMarker is the annotation, written as the last line of the doc
// comment: //vsnoop:hotpath
const hotPathMarker = "//vsnoop:hotpath"

func runHotAlloc(mod *Module, opts Options, report ReportFn) {
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotPath(fd) {
					continue
				}
				checkHotBody(pkg, fd, report)
			}
		}
	}
}

// isHotPath reports whether the function's doc comment carries the marker.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathMarker {
			return true
		}
	}
	return false
}

func checkHotBody(pkg *Package, fd *ast.FuncDecl, report ReportFn) {
	info := pkg.Info
	name := fd.Name.Name

	// First pass: appends in the amortized self-append idiom
	// `x = append(x, ...)` are allowed — the backing array is reused across
	// calls and growth is amortized (the event heap, register files).
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if ok && isBuiltinCall(info, call, "append") && len(call.Args) > 0 &&
			types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			allowedAppend[call] = true
		}
		return true
	})

	rep := func(pos token.Pos, msg string) {
		report(pkg, pos, "hot path "+name+": "+msg)
	}

	var results *types.Tuple
	if sig, ok := info.TypeOf(fd.Name).(*types.Signature); ok {
		results = sig.Results()
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesVariables(info, x) {
				rep(x.Pos(), "closure literal captures variables — each evaluation allocates; prebind a HandlerFn and pass state via (arg, u)")
			}
			// The literal runs later, outside this hot invocation; its body
			// is not this function's hot path.
			return false
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					rep(x.Pos(), "map literal allocates; use a dense slice or bitset")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(info, x.X) && info.Types[x].Value == nil {
				rep(x.Pos(), "string concatenation allocates; move formatting off the hot path")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringExpr(info, x.Lhs[0]) {
				rep(x.Pos(), "string concatenation allocates; move formatting off the hot path")
			}
			if x.Tok == token.ASSIGN {
				for i := range x.Lhs {
					if i < len(x.Rhs) && len(x.Lhs) == len(x.Rhs) {
						checkBoxing(info, rep, info.TypeOf(x.Lhs[i]), x.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				dt := info.TypeOf(x.Type)
				for _, v := range x.Values {
					checkBoxing(info, rep, dt, v)
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(x.Results) == results.Len() {
				for i, r := range x.Results {
					checkBoxing(info, rep, results.At(i).Type(), r)
				}
			}
		case *ast.CallExpr:
			checkHotCall(info, rep, x, allowedAppend)
		}
		return true
	})

	// Flow-sensitive half: allocation sites whose pointer escapes on a
	// later line (see hotescape.go).
	checkHotEscapes(pkg, fd, rep)
}

func checkHotCall(info *types.Info, rep func(token.Pos, string), call *ast.CallExpr, allowedAppend map[*ast.CallExpr]bool) {
	tv, ok := info.Types[unparen(call.Fun)]
	if !ok {
		return
	}
	switch {
	case tv.IsType():
		// Explicit conversion T(x): boxing when T is an interface.
		if len(call.Args) == 1 {
			checkBoxing(info, rep, tv.Type, call.Args[0])
		}
		return
	case tv.IsBuiltin():
		switch builtinName(info, call) {
		case "append":
			if !allowedAppend[call] {
				rep(call.Pos(), "append outside the self-append idiom x = append(x, ...) — preallocate, or waive with //lint:alloc <reason>")
			}
			// Appending into a slice of interfaces boxes every element,
			// self-append idiom or not.
			if !call.Ellipsis.IsValid() && len(call.Args) > 1 {
				if t := info.TypeOf(call.Args[0]); t != nil {
					if sl, ok := t.Underlying().(*types.Slice); ok {
						for _, a := range call.Args[1:] {
							checkBoxing(info, rep, sl.Elem(), a)
						}
					}
				}
			}
		case "make":
			if len(call.Args) > 0 {
				if t := info.TypeOf(call.Args[0]); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						rep(call.Pos(), "make(map) allocates; use a dense slice or bitset")
					}
				}
			}
		}
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				rep(call.Pos(), "fmt."+sel.Sel.Name+" allocates (boxing + formatting); move it to a cold helper")
				return
			}
		}
	}
	// Implicit boxing of call arguments into interface parameters.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				if i == np-1 {
					pt = sig.Params().At(np - 1).Type()
				}
			} else if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		checkBoxing(info, rep, pt, arg)
	}
}

// checkBoxing reports when assigning expr to a destination of type dst
// boxes a heap-allocating value into an interface.
func checkBoxing(info *types.Info, rep func(token.Pos, string), dst types.Type, expr ast.Expr) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	at := info.TypeOf(expr)
	if at == nil || !boxingAllocates(at) {
		return
	}
	rep(expr.Pos(), "conversion of "+at.String()+" to interface allocates (boxing); pass a pointer or pre-boxed value")
}

// boxingAllocates reports whether converting a value of type t to an
// interface heap-allocates. Pointer-shaped kinds (pointers, maps, chans,
// funcs, unsafe pointers) fit in the interface data word; everything else
// (structs, arrays, slices, strings, numerics) escapes.
func boxingAllocates(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// capturesVariables reports whether the func literal references variables
// declared outside itself (excluding package-level state, which is not
// captured — it is addressed directly).
func capturesVariables(info *types.Info, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || isPackageLevel(v) {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return builtinName(info, call) == name
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
