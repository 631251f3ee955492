package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"vsnoop/internal/lint/ir"
)

// domainOwnAnalyzer proves the code-level analogue of the paper's isolation
// invariant: domain-owned state (filter replicas, COW overlays, RegionScout
// shards, directory homes, per-core nodes) is only touched by its owning
// domain's handlers, or handed across domains through the internal/sim
// deposit API (Engine.ScheduleFnAtDom).
//
// State is declared with //vsnoop:owned annotations (see annot.go for the
// grammar). The analyzer walks flow-sensitively from every handler root
// (collectRoots) and tracks, per local variable, a provenance fact over
// the ir CFG:
//
//   - SELF — derived from the handler's own inputs: the deposited arg, the
//     domain index u, the rooted method's receiver, captured variables
//     (bound at wiring time), fields of SELF values, and ownership-table
//     elements indexed by SELF-derived indexes (or by a constant equal to
//     the root's statically known domain);
//   - FOREIGN — obtained by enumerating an ownership table, indexing one
//     with anything else, or reading package-level owned state.
//
// Accessing a FOREIGN owned value — reading or writing its fields, calling
// its methods, indexing it — is a finding, with two sanctioned exceptions:
// reading a //vsnoop:owned const field (immutable identity, used to compute
// deposit destinations), and passing the value whole as the payload of
// ScheduleFnAtDom (the ownership transfer itself). Passing a FOREIGN owned
// value to any other call smuggles state across the domain boundary and is
// flagged too, as is leaking a whole ownership table into a call.
//
// The proof is relative to the deposit discipline: a deposited payload is
// assumed owned by the receiving domain (that is what depositing means —
// dynamic staleness is handled by the event-tag chase protocol), and index
// arithmetic over handler inputs is trusted (guarded at runtime by the
// bit-identity test matrix). Dynamic dispatch is not resolved; handlers
// reached only through interfaces carry //vsnoop:handler annotations.
var domainOwnAnalyzer = &Analyzer{
	Name:      "domainown",
	Doc:       "proves handler access to //vsnoop:owned state stays in the owning domain or crosses via the sim deposit API",
	WaiverKey: "owned",
	Run:       runDomainOwn,
}

func runDomainOwn(mod *Module, opts Options, report ReportFn) {
	own := collectOwnership(mod)
	if own.empty() {
		return
	}
	ix := newFuncIndex(mod)
	roots := collectRoots(ix, own)

	a := &ownAnalysis{mod: mod, own: own, ix: ix, roots: roots}

	// Interprocedural fixpoint over the static-domain lattice: every
	// function reachable from a root accumulates the join of the domains
	// it can execute in; constant table indexes prove SELF only when they
	// match a known domain.
	engine := &ir.Interproc[*domState]{
		Build: ix.irOf,
		Copy:  func(s *domState) *domState { c := *s; return &c },
		Join:  func(dst, src *domState) bool { return dst.dom.join(src.dom) },
		Analyze: func(fn *ir.Func, obj *types.Func, entry *domState) []ir.CallOut[*domState] {
			return a.analyze(fn, a.pkgOf(obj), entry.dom, nil)
		},
	}
	for _, r := range sortedNamedRoots(roots) {
		engine.AddRoot(r.obj, &domState{dom: r.dom})
	}
	// Rooted literals are not engine nodes (it is keyed by *types.Func);
	// seed the functions they call directly. Their domain facts are fixed,
	// so one pre-pass suffices.
	for _, r := range sortedLitRoots(roots) {
		for _, out := range a.analyze(ix.irOfLit(r.pkg, r.lit), r.pkg, r.dom, nil) {
			engine.AddRoot(out.Callee, out.Fact)
		}
	}
	final := engine.Run()

	// Reporting pass: every reached function once under its final domain
	// fact, then every rooted literal. Nested non-root literals are
	// analyzed inline by their enclosing body.
	type reached struct {
		obj *types.Func
		dom domValue
	}
	var order []reached
	for obj, st := range final {
		order = append(order, reached{obj, st.dom})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].obj.FullName() < order[j].obj.FullName() })
	for _, r := range order {
		a.analyze(ix.irOf(r.obj), a.pkgOf(r.obj), r.dom, report)
	}
	for _, r := range sortedLitRoots(roots) {
		a.analyze(ix.irOfLit(r.pkg, r.lit), r.pkg, r.dom, report)
	}
}

func sortedNamedRoots(roots *rootSet) []*handlerRoot {
	out := make([]*handlerRoot, 0, len(roots.named))
	for _, r := range roots.named {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.FullName() < out[j].obj.FullName() })
	return out
}

func sortedLitRoots(roots *rootSet) []*handlerRoot {
	out := make([]*handlerRoot, 0, len(roots.lits))
	for _, r := range roots.lits {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lit.Pos() < out[j].lit.Pos() })
	return out
}

type domState struct{ dom domValue }

// pv is the per-value provenance fact.
type pv struct {
	foreign bool // derived from cross-domain enumeration or global state
	owned   bool // refers to domain-owned state (annotated type or table element)
	table   bool // aliases an ownership table
}

func (p pv) or(q pv) pv {
	return pv{p.foreign || q.foreign, p.owned || q.owned, p.table || q.table}
}

type pvFact map[*types.Var]pv

// ownAnalysis is the per-module provenance pass state.
type ownAnalysis struct {
	mod   *Module
	own   *ownership
	ix    *funcIndex
	roots *rootSet
}

func (a *ownAnalysis) pkgOf(obj *types.Func) *Package {
	if site, ok := a.ix.decls[obj]; ok {
		return site.pkg
	}
	return nil
}

// analyze runs the provenance dataflow over fn under the given static
// domain. With report nil it only returns propagation edges (fixpoint
// phase); with report set it also emits findings. Nested non-root literals
// are analyzed inline with the same domain (they execute synchronously in
// the handler, or are rooted separately when deposited).
func (a *ownAnalysis) analyze(fn *ir.Func, pkg *Package, dom domValue, report ReportFn) []ir.CallOut[*domState] {
	if fn == nil || pkg == nil || pkg.Path == a.mod.Path+"/internal/sim" {
		return nil
	}
	st := &ownScan{a: a, pkg: pkg, dom: dom, report: report}
	st.run(fn)
	return st.outs
}

// ownScan carries per-function analysis state.
type ownScan struct {
	a      *ownAnalysis
	pkg    *Package
	dom    domValue
	report ReportFn
	outs   []ir.CallOut[*domState]
}

func (s *ownScan) run(fn *ir.Func) {
	analysis := ir.ForwardAnalysis[pvFact]{
		Entry:  func(*ir.Func) pvFact { return make(pvFact) },
		Bottom: func() pvFact { return make(pvFact) },
		Copy: func(f pvFact) pvFact {
			g := make(pvFact, len(f))
			for v, p := range f {
				g[v] = p
			}
			return g
		},
		Join: func(dst, src pvFact) bool {
			changed := false
			for v, p := range src {
				m := dst[v].or(p)
				if m != dst[v] {
					dst[v] = m
					changed = true
				}
			}
			return changed
		},
		Transfer: s.transfer,
	}
	in := ir.Forward(fn, analysis)
	ir.Replay(fn, analysis, in, func(fact pvFact, ins *ir.Instr) {
		s.check(fact, ins)
	})
}

func (s *ownScan) info() *types.Info { return s.pkg.Info }

// transfer updates the fact through one instruction.
func (s *ownScan) transfer(fact pvFact, ins *ir.Instr) {
	switch ins.Op {
	case ir.OpAssign, ir.OpDecl:
		nl, nr := len(ins.Lhs), len(ins.Rhs)
		for i, l := range ins.Lhs {
			v := localVar(s.info(), l)
			if v == nil {
				continue
			}
			switch {
			case nl == nr:
				fact[v] = s.exprPV(fact, ins.Rhs[i])
			case nr == 1:
				// comma-ok / multi-value call: every LHS derives from the
				// single RHS.
				fact[v] = s.exprPV(fact, ins.Rhs[0])
			default:
				fact[v] = pv{}
			}
		}
	case ir.OpRange:
		x := s.exprPV(fact, ins.X)
		elemForeign := x.foreign || x.table
		if v := localVar(s.info(), ins.Key); v != nil {
			// Ranged keys of a table are indexes covering every domain.
			fact[v] = pv{foreign: elemForeign}
		}
		if v := localVar(s.info(), ins.Value); v != nil {
			fact[v] = pv{foreign: elemForeign, owned: x.table || x.owned}
		}
	case ir.OpTypeSwitchBind:
		if len(ins.Defs) == 1 && ins.X != nil {
			fact[ins.Defs[0]] = s.exprPV(fact, ins.X)
		}
	}
}

// exprPV computes the provenance of an expression under fact.
func (s *ownScan) exprPV(fact pvFact, e ast.Expr) pv {
	if e == nil {
		return pv{}
	}
	info := s.info()
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			owned := s.a.own.ownedType(v.Type())
			if isPackageLevel(v) {
				return pv{foreign: owned, owned: owned}
			}
			p := fact[v]
			p.owned = p.owned || owned
			return p
		}
		return pv{}
	case *ast.ParenExpr:
		return s.exprPV(fact, x.X)
	case *ast.StarExpr:
		return s.exprPV(fact, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return pv{}
		}
		return s.exprPV(fact, x.X)
	case *ast.TypeAssertExpr:
		return s.exprPV(fact, x.X)
	case *ast.SelectorExpr:
		return s.selPV(fact, x)
	case *ast.IndexExpr:
		base := s.exprPV(fact, x.X)
		if base.table {
			if s.indexIsSelf(fact, x.Index) {
				return pv{owned: true}
			}
			return pv{foreign: true, owned: true}
		}
		elemOwned := s.a.own.ownedType(info.TypeOf(x))
		return pv{foreign: base.foreign, owned: base.owned || elemOwned}
	case *ast.SliceExpr:
		return s.exprPV(fact, x.X)
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return s.exprPV(fact, x.Args[0]) // conversion
		}
		return pv{owned: s.a.own.ownedType(info.TypeOf(x))}
	case *ast.BinaryExpr:
		l, r := s.exprPV(fact, x.X), s.exprPV(fact, x.Y)
		return pv{foreign: l.foreign || r.foreign}
	default:
		return pv{}
	}
}

// selPV is the field/method-selection provenance rule.
func (s *ownScan) selPV(fact pvFact, x *ast.SelectorExpr) pv {
	info := s.info()
	own := s.a.own
	// Qualified reference pkg.Var.
	if id, ok := x.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				owned := own.ownedType(v.Type())
				return pv{foreign: owned, owned: owned}
			}
			return pv{}
		}
	}
	fieldVar, _ := info.Uses[x.Sel].(*types.Var)
	base := s.exprPV(fact, x.X)
	switch {
	case fieldVar != nil && own.tables[fieldVar]:
		return pv{table: true, foreign: base.foreign}
	case fieldVar != nil && own.refs[fieldVar]:
		// Same-domain reference wired at setup: reads are domain-local.
		return pv{owned: own.ownedType(fieldVar.Type()), foreign: base.foreign}
	case fieldVar != nil && fieldVar.IsField() && own.ownedType(fieldVar.Type()) &&
		!base.owned && !own.consts[fieldVar]:
		// An owned-typed field hanging off unowned shared state (the
		// Machine, a controller): a cross-domain reference unless
		// annotated //vsnoop:owned ref.
		return pv{foreign: true, owned: true}
	default:
		t := info.TypeOf(x)
		return pv{foreign: base.foreign, owned: own.ownedType(t)}
	}
}

// indexIsSelf decides whether an index expression stays in the executing
// domain: constants must equal the statically known domain; everything
// else must be SELF-derived (not foreign).
func (s *ownScan) indexIsSelf(fact pvFact, idx ast.Expr) bool {
	if c := constIntOf(s.info(), idx); c != nil {
		return s.dom.isKnown() && s.dom.val == *c
	}
	return !s.exprPV(fact, idx).foreign
}

// check inspects one instruction for violations and records callouts.
func (s *ownScan) check(fact pvFact, ins *ir.Instr) {
	isWriteTarget := func(e ast.Expr) bool {
		if ins.Op != ir.OpAssign && ins.Op != ir.OpIncDec {
			return false
		}
		for _, lhs := range ins.Lhs {
			if lhs == e {
				return true
			}
		}
		return false
	}
	for _, lhs := range ins.Lhs {
		if ins.Op == ir.OpAssign || ins.Op == ir.OpIncDec {
			s.checkWrite(fact, lhs)
		}
	}
	ins.Exprs(func(e ast.Expr) {
		s.walkExpr(fact, e, isWriteTarget(e))
	})
	if ins.Op == ir.OpRange && ins.X != nil {
		if p := s.exprPV(fact, ins.X); p.foreign && p.owned && !p.table {
			s.flag(ins.X.Pos(), "ranges over a foreign domain-owned value"+transferHint)
		}
	}
}

// checkWrite flags a store whose target chain passes through foreign
// owned state or into an ownership table at a foreign index. Const fields
// are NOT exempt: identity is immutable.
func (s *ownScan) checkWrite(fact pvFact, lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if base := s.exprPV(fact, x.X); base.foreign && base.owned {
				s.flag(x.Pos(), "writes field "+x.Sel.Name+" of a foreign domain-owned value"+transferHint)
				return
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			base := s.exprPV(fact, x.X)
			if base.table && !s.indexIsSelf(fact, x.Index) {
				s.flag(x.Pos(), "stores into an ownership table at a foreign index"+transferHint)
				return
			}
			if base.foreign && base.owned {
				s.flag(x.Pos(), "writes an element of a foreign domain-owned value"+transferHint)
				return
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			if base := s.exprPV(fact, x.X); base.foreign && base.owned {
				s.flag(x.Pos(), "writes through a pointer to a foreign domain-owned value"+transferHint)
				return
			}
			e = ast.Unparen(x.X)
		default:
			return
		}
	}
}

// walkExpr descends an operand expression flagging foreign-owned reads
// and call leaks. writeTarget marks the instruction's own store target,
// whose base chain checkWrite already covered.
func (s *ownScan) walkExpr(fact pvFact, e ast.Expr, writeTarget bool) {
	info := s.info()
	var walk func(e ast.Expr, skipTop bool)
	walk = func(e ast.Expr, skipTop bool) {
		switch x := e.(type) {
		case nil:
		case *ast.ParenExpr:
			walk(x.X, skipTop)
		case *ast.FuncLit:
			s.nestedLit(x)
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return
				}
			}
			if !skipTop {
				if base := s.exprPV(fact, x.X); base.foreign && base.owned {
					fieldVar, _ := info.Uses[x.Sel].(*types.Var)
					if fieldVar == nil || !s.a.own.consts[fieldVar] {
						what := "field " + x.Sel.Name
						if _, isFn := info.Uses[x.Sel].(*types.Func); isFn {
							what = "method " + x.Sel.Name
						}
						s.flag(x.Pos(), "accesses "+what+" of a foreign domain-owned value"+transferHint)
					}
				}
			}
			walk(x.X, false)
		case *ast.IndexExpr:
			if !skipTop {
				if base := s.exprPV(fact, x.X); base.foreign && base.owned && !base.table {
					s.flag(x.Pos(), "indexes a foreign domain-owned value"+transferHint)
				}
			}
			walk(x.X, skipTop)
			walk(x.Index, false)
		case *ast.CallExpr:
			s.checkCall(fact, x)
			walk(x.Fun, true) // the method access itself is checked by checkCall's receiver rule below
			for _, arg := range x.Args {
				walk(arg, false)
			}
		case *ast.StarExpr:
			walk(x.X, skipTop)
		case *ast.UnaryExpr:
			walk(x.X, false)
		case *ast.BinaryExpr:
			walk(x.X, false)
			walk(x.Y, false)
		case *ast.TypeAssertExpr:
			walk(x.X, false)
		case *ast.SliceExpr:
			walk(x.X, false)
			walk(x.Low, false)
			walk(x.High, false)
			walk(x.Max, false)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				walk(el, false)
			}
		case *ast.KeyValueExpr:
			walk(x.Value, false)
		}
	}
	walk(e, writeTarget)
}

// nestedLit analyzes a non-root nested literal inline: it executes
// synchronously in the same handler (sort comparators, small helpers);
// deposited literals are separate roots and skipped here.
func (s *ownScan) nestedLit(fl *ast.FuncLit) {
	if _, isRoot := s.a.roots.lits[fl]; isRoot {
		return
	}
	fn := s.a.ix.irOfLit(s.pkg, fl)
	ns := &ownScan{a: s.a, pkg: s.pkg, dom: s.dom, report: s.report}
	ns.run(fn)
	s.outs = append(s.outs, ns.outs...)
}

// checkCall flags foreign owned values and ownership tables leaking into
// ordinary calls, exempts the sanctioned transfer (the ScheduleFnAtDom
// payload), checks the receiver of method calls, and records the callout
// for the interprocedural fixpoint.
func (s *ownScan) checkCall(fact pvFact, call *ast.CallExpr) {
	info := s.info()
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if ok && (tv.IsType() || tv.IsBuiltin()) {
		return // conversions and builtins (len, cap, append) do not leak
	}
	// Method call on a foreign owned receiver.
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if _, isFn := info.Uses[sel.Sel].(*types.Func); isFn {
			if base := s.exprPV(fact, sel.X); base.foreign && base.owned {
				s.flag(sel.Pos(), "calls method "+sel.Sel.Name+" on a foreign domain-owned value"+transferHint)
			}
		}
	}
	deposit := isDepositCall(call)
	for i, arg := range call.Args {
		if deposit && i >= 1 {
			// dst, fn, payload, u: the deposit contract hands the payload
			// (and its routing metadata) to the destination domain.
			continue
		}
		p := s.exprPV(fact, arg)
		if p.foreign && p.owned {
			s.flag(arg.Pos(), "passes a foreign domain-owned value to a call"+transferHint)
		}
		if p.table {
			s.flag(arg.Pos(), "passes an ownership table to a call; index it at the call site instead")
		}
	}
	if callee := staticCallee(info, call); callee != nil {
		s.outs = append(s.outs, ir.CallOut[*domState]{Callee: callee, Fact: &domState{dom: s.dom}})
	}
}

const transferHint = "; hand it to its owner with Engine.ScheduleFnAtDom or waive with //lint:owned <reason>"

func (s *ownScan) flag(pos token.Pos, msg string) {
	if s.report == nil {
		return
	}
	s.report(s.pkg, pos, "domain confinement: handler-reachable code "+msg)
}

// isDepositCall matches the sanctioned ownership-transfer API by name:
// Engine.ScheduleFnAtDom(at, dom, fn, arg, u).
func isDepositCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "ScheduleFnAtDom" && len(call.Args) == 5
}

// staticCallee resolves a call to a module-level named function or method.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[f].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// localVar resolves a plain identifier to a local variable.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var v *types.Var
	if d, ok := info.Defs[id].(*types.Var); ok {
		v = d
	} else if u, ok := info.Uses[id].(*types.Var); ok {
		v = u
	}
	if v == nil || v.IsField() || isPackageLevel(v) {
		return nil
	}
	return v
}
