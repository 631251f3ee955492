package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"vsnoop/internal/lint/ir"
)

// schedulerFuncs are method/function names whose function-typed arguments
// execute in handler context.
var schedulerFuncs = map[string]bool{
	"Schedule": true, "ScheduleAt": true,
	"ScheduleFn": true, "ScheduleFnAt": true, "ScheduleFnAtDom": true,
	"SetHandler": true, "Attach": true,
}

// funcIndex is the module-wide function registry shared by the IR-based
// analyzers: every declared function with a body, keyed by its types
// object, plus memoized IR for declarations and literals.
type funcIndex struct {
	mod   *Module
	decls map[*types.Func]declSite
	irFns map[*types.Func]*ir.Func
	irLit map[*ast.FuncLit]*ir.Func
}

type declSite struct {
	pkg *Package
	fd  *ast.FuncDecl
}

func newFuncIndex(mod *Module) *funcIndex {
	ix := &funcIndex{
		mod:   mod,
		decls: make(map[*types.Func]declSite),
		irFns: make(map[*types.Func]*ir.Func),
		irLit: make(map[*ast.FuncLit]*ir.Func),
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						ix.decls[obj] = declSite{pkg, fd}
					}
				}
			}
		}
	}
	return ix
}

// irOf builds (memoized) the IR of a declared module function; nil when
// the function has no body in the module.
func (ix *funcIndex) irOf(obj *types.Func) *ir.Func {
	if fn, ok := ix.irFns[obj]; ok {
		return fn
	}
	var fn *ir.Func
	if site, ok := ix.decls[obj]; ok {
		fn = ir.BuildDecl(site.pkg.Info, site.fd)
	}
	ix.irFns[obj] = fn
	return fn
}

// irOfLit builds (memoized) the IR of a function literal.
func (ix *funcIndex) irOfLit(pkg *Package, fl *ast.FuncLit) *ir.Func {
	if fn, ok := ix.irLit[fl]; ok {
		return fn
	}
	fn := ir.BuildLit(pkg.Info, fl)
	ix.irLit[fl] = fn
	return fn
}

// handlerRoot is one analysis root: a named function or literal that
// executes in handler context, with the statically inferred domain it
// executes in (joined over every deposit site that names it).
type handlerRoot struct {
	obj *types.Func  // named root (nil for literals)
	lit *ast.FuncLit // literal root (nil for named)
	pkg *Package
	dom domValue
}

// rootSet is the result of root collection: every handler root with its
// static domain.
type rootSet struct {
	named map[*types.Func]*handlerRoot
	lits  map[*ast.FuncLit]*handlerRoot
}

// collectRoots finds every handler root in the module outside internal/sim:
//
//   - function-typed arguments of scheduler calls (Schedule, ScheduleFn,
//     ScheduleFnAtDom, SetHandler, Attach, ...), carrying the deposit
//     site's static domain: the constant dom argument of ScheduleFnAtDom,
//     or — for same-domain schedulers — the engine the call is made on,
//     resolved through `<x>[C].eng` receivers, including one def-use hop
//     through a local (`eng := m.doms[0].eng; eng.ScheduleFn(...)`);
//   - handlers bound to struct fields (m.stepFn = ...) that are later
//     scheduled through the field: the binding's RHS is rooted with the
//     deposit site's domain;
//   - every value of handler shape (func(interface{}) / func(interface{},
//     uint64)), rooted with no domain constraint — registries the walk
//     cannot see may invoke them from anywhere;
//   - //vsnoop:handler annotated functions, with their declared dom=N.
//
// Domain facts from explicit deposit sites and annotations take
// precedence; shape occurrences alone yield the unconstrained domain.
func collectRoots(ix *funcIndex, own *ownership) *rootSet {
	mod := ix.mod
	simPath := mod.Path + "/internal/sim"
	rs := &rootSet{
		named: make(map[*types.Func]*handlerRoot),
		lits:  make(map[*ast.FuncLit]*handlerRoot),
	}

	// weak marks roots that so far have only shape evidence: their dom is
	// provisional `many` and is REPLACED (not joined) by the first strong
	// deposit-site fact.
	weak := make(map[*handlerRoot]bool)

	addNamed := func(pkg *Package, obj *types.Func, dom domValue, strong bool) {
		if obj == nil {
			return
		}
		site, ok := ix.decls[obj]
		if !ok || site.pkg.Path == simPath {
			return
		}
		r := rs.named[obj]
		if r == nil {
			r = &handlerRoot{obj: obj, pkg: site.pkg}
			rs.named[obj] = r
			weak[r] = !strong
		}
		mergeRootDom(r, dom, strong, weak)
	}
	addLit := func(pkg *Package, fl *ast.FuncLit, dom domValue, strong bool) {
		if pkg.Path == simPath {
			return
		}
		r := rs.lits[fl]
		if r == nil {
			r = &handlerRoot{lit: fl, pkg: pkg}
			rs.lits[fl] = r
			weak[r] = !strong
		}
		mergeRootDom(r, dom, strong, weak)
	}
	addExpr := func(pkg *Package, e ast.Expr, dom domValue, strong bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			addLit(pkg, x, dom, strong)
		case *ast.Ident:
			if obj, ok := pkg.Info.Uses[x].(*types.Func); ok {
				addNamed(pkg, obj, dom, strong)
			}
		case *ast.SelectorExpr:
			if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				addNamed(pkg, obj, dom, strong)
			}
		}
	}

	// Handler-field bindings: field variable -> RHS handler expressions.
	type binding struct {
		pkg *Package
		e   ast.Expr
	}
	bindings := make(map[*types.Var][]binding)
	for _, pkg := range mod.Pkgs {
		if pkg.Path == simPath {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						bindings[v] = append(bindings[v], binding{pkg, as.Rhs[i]})
					}
				}
				return true
			})
		}
	}

	// Scheduler call sites and handler-shaped values, per function body so
	// receiver resolution has def-use context.
	scanBody := func(pkg *Package, node ast.Node, body *ast.BlockStmt, fnIR func() *ir.Func) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if !ok || !schedulerFuncs[sel.Sel.Name] {
					return true
				}
				dom := depositDomain(pkg, sel, x, fnIR)
				for _, arg := range x.Args {
					t := pkg.Info.TypeOf(arg)
					if t == nil {
						continue
					}
					if _, isFn := t.Underlying().(*types.Signature); !isFn {
						continue
					}
					addExpr(pkg, arg, dom, true)
					// Field-mediated: the arg names a handler field; root
					// everything ever bound to that field at this domain.
					if as, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
						if v, ok := pkg.Info.Uses[as.Sel].(*types.Var); ok && v.IsField() {
							for _, b := range bindings[v] {
								addExpr(b.pkg, b.e, dom, true)
							}
						}
					}
					// Local-mediated: the arg is a local whose reaching
					// definitions bind literals (fn = func(...){...}; ...;
					// eng.ScheduleFnAtDom(at, 0, fn, ...)). Root each bound
					// literal at this deposit's domain.
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if _, isLocal := pkg.Info.Uses[id].(*types.Var); isLocal {
							if fn := fnIR(); fn != nil {
								for _, def := range fn.BuildDefUse().Defs(id) {
									if ir.EntryDef(def) {
										continue
									}
									if rhs := singleRHSFor(def, id); rhs != nil {
										addExpr(pkg, rhs, dom, true)
									}
								}
							}
						}
					}
				}
			case *ast.FuncLit:
				if isHandlerShape(pkg.Info.TypeOf(x)) {
					addLit(pkg, x, domMany(), false)
				}
			case *ast.Ident:
				if obj, ok := pkg.Info.Uses[x].(*types.Func); ok && isHandlerShape(pkg.Info.TypeOf(x)) {
					addNamed(pkg, obj, domMany(), false)
				}
			case *ast.SelectorExpr:
				if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok && isHandlerShape(pkg.Info.TypeOf(x)) {
					addNamed(pkg, obj, domMany(), false)
				}
			}
			return true
		})
	}

	for _, pkg := range mod.Pkgs {
		if pkg.Path == simPath {
			continue
		}
		pkg := pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var cached *ir.Func
				fnIR := func() *ir.Func {
					if cached == nil {
						if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
							cached = ix.irOf(obj)
						}
					}
					return cached
				}
				scanBody(pkg, fd, fd.Body, fnIR)
			}
		}
	}

	// Annotated roots are strong: the annotation is the domain authority.
	for obj, dom := range own.handlers {
		if site, ok := ix.decls[obj]; ok {
			addNamed(site.pkg, obj, dom, true)
		}
	}
	return rs
}

func mergeRootDom(r *handlerRoot, dom domValue, strong bool, weak map[*handlerRoot]bool) {
	switch {
	case strong && weak[r]:
		weak[r] = false
		r.dom = dom
	case strong:
		r.dom.join(dom)
	case weak[r]:
		r.dom.join(domMany())
	}
}

// depositDomain infers the static domain a scheduler call deposits into.
func depositDomain(pkg *Package, fun *ast.SelectorExpr, call *ast.CallExpr, fnIR func() *ir.Func) domValue {
	switch fun.Sel.Name {
	case "ScheduleFnAtDom":
		// (at, dom, fn, arg, u): a constant dom pins the domain.
		if len(call.Args) >= 2 {
			if c := constIntOf(pkg.Info, call.Args[1]); c != nil {
				return domKnown(*c)
			}
		}
		return domMany()
	case "Schedule", "ScheduleAt", "ScheduleFn", "ScheduleFnAt":
		// Same-domain schedulers: the domain is the engine's. Resolve the
		// receiver to `<x>[C].eng`, directly or through one local.
		return engineDomain(pkg, fun.X, fnIR)
	default: // SetHandler, Attach: mesh registration, domain unknown
		return domMany()
	}
}

// engineDomain resolves an engine-valued receiver expression to a static
// domain: `m.doms[0].eng` directly, or an ident whose every reaching
// definition is such an expression.
func engineDomain(pkg *Package, recv ast.Expr, fnIR func() *ir.Func) domValue {
	if d := engineSelDomain(pkg, recv); d.state != 0 {
		return d
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return domMany()
	}
	fn := fnIR()
	if fn == nil {
		return domMany()
	}
	du := fn.BuildDefUse()
	defs := du.Defs(id)
	if len(defs) == 0 {
		return domMany()
	}
	var dom domValue
	for _, def := range defs {
		if ir.EntryDef(def) {
			return domMany()
		}
		rhs := singleRHSFor(def, id)
		if rhs == nil {
			return domMany()
		}
		d := engineSelDomain(pkg, rhs)
		if d.state == 0 {
			return domMany()
		}
		dom.join(d)
	}
	if dom.state == 0 {
		return domMany()
	}
	return dom
}

// engineSelDomain matches `<x>[C].eng`-shaped expressions.
func engineSelDomain(pkg *Package, e ast.Expr) domValue {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return domValue{}
	}
	idx, ok := ast.Unparen(sel.X).(*ast.IndexExpr)
	if !ok {
		return domValue{}
	}
	if c := constIntOf(pkg.Info, idx.Index); c != nil {
		return domKnown(*c)
	}
	return domMany()
}

// singleRHSFor returns the RHS expression a definition instruction assigns
// to the variable behind id, when the instruction has paired sides.
func singleRHSFor(def *ir.Instr, id *ast.Ident) ast.Expr {
	if def.Op != ir.OpAssign && def.Op != ir.OpDecl {
		return nil
	}
	if len(def.Lhs) != len(def.Rhs) {
		return nil
	}
	for i, l := range def.Lhs {
		if li, ok := l.(*ast.Ident); ok && li.Name == id.Name {
			return def.Rhs[i]
		}
	}
	return nil
}

// constIntOf evaluates e to a constant int when the type checker did.
func constIntOf(info *types.Info, e ast.Expr) *int64 {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return nil
	}
	if n, exact := constant.Int64Val(tv.Value); exact {
		return &n
	}
	return nil
}

// isHandlerShape reports whether t is one of the two handler signatures:
// func(interface{}) (mesh.Handler) or func(interface{}, uint64)
// (sim.HandlerFn). Named types with those underlying shapes match too.
func isHandlerShape(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Recv() != nil {
		return false
	}
	p := sig.Params()
	switch p.Len() {
	case 1:
		return isEmptyInterface(p.At(0).Type())
	case 2:
		if !isEmptyInterface(p.At(0).Type()) {
			return false
		}
		b, ok := p.At(1).Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Uint64
	}
	return false
}

func isEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.NumMethods() == 0
}
