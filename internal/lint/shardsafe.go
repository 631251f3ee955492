package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vsnoop/internal/lint/ir"
)

// shardSafeAnalyzer guards the handler-isolation contract: code reachable
// from an event handler must not communicate except through the
// internal/sim event API (Engine.ScheduleFnAtDom for cross-domain events),
// and must not write package-level state — runner.Map sweeps run many
// machines on concurrent goroutines, and such a write would couple them.
// The analyzer:
//
//  1. collects handler roots — function literals and named functions that
//     are (a) arguments to Schedule / ScheduleAt / ScheduleFn /
//     ScheduleFnAt / ScheduleFnAtDom / SetHandler / Attach calls, or
//     (b) used as values of handler shape (func(interface{}) ~
//     mesh.Handler, func(interface{}, uint64) ~ sim.HandlerFn);
//  2. walks the static call graph from those roots (direct calls plus any
//     use of a module function as a value);
//  3. flags, in every reachable function outside internal/sim, the
//     constructs that bypass the event API: goroutine launches, channel
//     operations (send, receive, close, select, range-over-channel), and
//     writes to package-level variables — including writes laundered
//     through local pointer aliases (p := &shared; p.f = v), which a
//     flow-sensitive pass over the internal/lint/ir CFG resolves back to
//     the package-level storage they mutate (see shardalias.go).
//
// internal/sim itself is exempt — it IS the event API the rest of the
// module is required to use. Dynamic dispatch
// (interface method calls, func-typed fields) is not resolved; that is a
// documented soundness limit, mitigated by rooting every handler-shaped
// function value at its creation site.
//
// A second, package-wide rule confines sync/atomic: the only permitted
// atomics in sim-critical packages are the fields of internal/sim's
// Canceler, the control word another goroutine sets to stop a run. Any
// other atomic declaration, or any legacy atomic.AddX/LoadX-style call, in
// a critical package is a finding: ad-hoc atomics are how nondeterminism
// sneaks past the event discipline.
var shardSafeAnalyzer = &Analyzer{
	Name:      "shardsafe",
	Doc:       "flags handler-reachable code that bypasses the sim event API, and atomics outside internal/sim's Canceler",
	WaiverKey: "shardsafe",
	Run:       runShardSafe,
}

// atomicStructAllowlist names the internal/sim structs whose fields may
// have sync/atomic types without a waiver: the Canceler control word
// polled by StepChecked. Only a struct in a package whose import path ends
// in internal/sim qualifies.
var atomicStructAllowlist = map[string]bool{
	"Canceler": true,
}

// schedulerFuncs are method/function names whose function-typed arguments
// execute in handler context.
var schedulerFuncs = map[string]bool{
	"Schedule": true, "ScheduleAt": true,
	"ScheduleFn": true, "ScheduleFnAt": true, "ScheduleFnAtDom": true,
	"SetHandler": true, "Attach": true,
}

// shardWork is one node of the reachability walk: a function body plus the
// package whose types.Info describes it. node is the *ast.FuncDecl or
// *ast.FuncLit, for building the body's IR.
type shardWork struct {
	pkg  *Package
	name string
	body *ast.BlockStmt
	node ast.Node
}

func runShardSafe(mod *Module, opts Options, report ReportFn) {
	runAtomicConfinement(mod, opts, report)
	simPath := mod.Path + "/internal/sim"

	// Registry: every module function with a body, by its types object.
	type declSite struct {
		pkg *Package
		fd  *ast.FuncDecl
	}
	registry := make(map[*types.Func]declSite)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						registry[obj] = declSite{pkg, fd}
					}
				}
			}
		}
	}

	var (
		queue       []shardWork
		seenFunc    = make(map[*types.Func]bool)
		seenLit     = make(map[*ast.FuncLit]bool)
		rootedUnder = make(map[*ast.FuncLit]bool) // lits enqueued as roots; skip when met inline
	)
	enqueueFunc := func(obj *types.Func) {
		if obj == nil || seenFunc[obj] {
			return
		}
		site, ok := registry[obj]
		if !ok || site.pkg.Path == simPath {
			return
		}
		seenFunc[obj] = true
		queue = append(queue, shardWork{site.pkg, obj.Name(), site.fd.Body, site.fd})
	}
	enqueueExpr := func(pkg *Package, e ast.Expr) {
		switch x := unparen(e).(type) {
		case *ast.FuncLit:
			if pkg.Path != simPath && !seenLit[x] {
				seenLit[x] = true
				rootedUnder[x] = true
				queue = append(queue, shardWork{pkg, "func literal", x.Body, x})
			}
		case *ast.Ident:
			if obj, ok := pkg.Info.Uses[x].(*types.Func); ok {
				enqueueFunc(obj)
			}
		case *ast.SelectorExpr:
			if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				enqueueFunc(obj)
			}
		}
	}

	// Root collection: scheduler-call arguments and handler-shaped values.
	for _, pkg := range mod.Pkgs {
		if pkg.Path == simPath {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok && schedulerFuncs[sel.Sel.Name] {
						for _, arg := range x.Args {
							if t := pkg.Info.TypeOf(arg); t != nil {
								if _, isFn := t.Underlying().(*types.Signature); isFn {
									enqueueExpr(pkg, arg)
								}
							}
						}
					}
				case *ast.FuncLit:
					if isHandlerShape(pkg.Info.TypeOf(x)) {
						enqueueExpr(pkg, x)
					}
				case *ast.Ident:
					// Shape-check TypeOf(x), not obj.Type(): a method value's
					// expression type has the receiver stripped, which is the
					// shape the handler registries see.
					if obj, ok := pkg.Info.Uses[x].(*types.Func); ok && isHandlerShape(pkg.Info.TypeOf(x)) {
						enqueueFunc(obj)
					}
				case *ast.SelectorExpr:
					if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok && isHandlerShape(pkg.Info.TypeOf(x)) {
						enqueueFunc(obj)
					}
				}
				return true
			})
		}
	}

	// Reachability walk. Func literals nested in a scanned body are scanned
	// in place (they run, or are re-scheduled, in handler context too).
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		info := w.pkg.Info
		flag := func(pos token.Pos, what string) {
			report(w.pkg, pos, "shard-handler-reachable "+w.name+" "+what+
				"; cross-domain communication must go through the sim event API (Engine.ScheduleFnAtDom)")
		}
		ast.Inspect(w.body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if rootedUnder[x] {
					return false // scanned as its own root
				}
				seenLit[x] = true
			case *ast.GoStmt:
				flag(x.Pos(), "launches a goroutine")
			case *ast.SendStmt:
				flag(x.Pos(), "sends on a channel")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					flag(x.Pos(), "receives from a channel")
				}
			case *ast.SelectStmt:
				flag(x.Pos(), "selects on channels")
			case *ast.RangeStmt:
				if t := info.TypeOf(x.X); t != nil {
					if _, isCh := t.Underlying().(*types.Chan); isCh {
						flag(x.For, "ranges over a channel")
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if v := packageLevelTarget(info, lhs); v != nil {
						flag(lhs.Pos(), "writes package-level variable "+v.Name())
					}
				}
			case *ast.IncDecStmt:
				if v := packageLevelTarget(info, x.X); v != nil {
					flag(x.Pos(), "writes package-level variable "+v.Name())
				}
			case *ast.CallExpr:
				if builtinName(info, x) == "close" {
					flag(x.Pos(), "closes a channel")
				}
				enqueueExpr(w.pkg, x.Fun)
			case *ast.Ident:
				if obj, ok := info.Uses[x].(*types.Func); ok {
					enqueueFunc(obj)
				}
			}
			return true
		})
		// Flow-sensitive half: the same write rule through local aliases.
		var fnIR *ir.Func
		switch d := w.node.(type) {
		case *ast.FuncDecl:
			fnIR = ir.BuildDecl(info, d)
		case *ast.FuncLit:
			fnIR = ir.BuildLit(info, d)
		}
		scanAliases(w.pkg, fnIR, nil, flag, rootedUnder)
	}
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

// runAtomicConfinement is the declaration-site half of the handler-isolation
// contract: it flags every sync/atomic-typed declaration (struct fields,
// package-level and local variables) and every legacy atomic.* function
// call in the sim-critical packages, except the fields of the allowlisted
// internal/sim structs. Flagging declarations rather than
// each Load/Store keeps waivers at the point where the judgment call is
// made — the decision to hold shared mutable state at all.
func runAtomicConfinement(mod *Module, opts Options, report ReportFn) {
	for _, pkg := range mod.Pkgs {
		if !opts.Critical(pkg.Path) {
			continue
		}
		inSim := strings.HasSuffix(pkg.Path, "internal/sim")
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSpec:
					st, ok := x.Type.(*ast.StructType)
					if !ok {
						return true
					}
					allowed := inSim && atomicStructAllowlist[x.Name.Name]
					for _, fld := range st.Fields.List {
						if allowed || !isAtomicType(pkg.Info.TypeOf(fld.Type)) {
							continue
						}
						report(pkg, fld.Pos(), "atomic field in struct "+x.Name.Name+
							" outside internal/sim's Canceler; cross-domain state must go through the sim event API")
					}
				case *ast.ValueSpec:
					for _, name := range x.Names {
						obj, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok || !isAtomicType(obj.Type()) {
							continue
						}
						report(pkg, name.Pos(), "atomic variable "+name.Name+
							" in a sim-critical package; atomics are confined to internal/sim's Canceler")
					}
				case *ast.CallExpr:
					sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync/atomic" {
						// Type conversions and constructors are covered by the
						// declaration checks; only function-style operations on
						// ad-hoc words (atomic.AddUint64 etc.) reach here.
						if _, isSig := pkg.Info.TypeOf(x.Fun).(*types.Signature); isSig {
							report(pkg, x.Pos(), "atomic."+sel.Sel.Name+
								" call in a sim-critical package; atomics are confined to internal/sim's Canceler")
						}
					}
				}
				return true
			})
		}
	}
}

// isAtomicType reports whether t (or its pointee) is a named type from
// sync/atomic.
func isAtomicType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// packageLevelTarget resolves an assignment target to the package-level
// variable it mutates, or nil. It unwraps selectors, indexing, and derefs
// to the base identifier: writing g.Field or g[i] mutates g just the same.
func packageLevelTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			// A qualified reference pkg.Var is a base, not a field access.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if ok && isPackageLevel(v) && !strings.HasPrefix(x.Name, "_") {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
