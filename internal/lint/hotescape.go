package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"vsnoop/internal/lint/ir"
)

// The escape pass is the flow-sensitive half of hotalloc. The syntax walk
// flags constructs that always allocate (map literals, fmt, string
// concatenation, boxing into interface destinations); what it cannot see
// is a pointer born on this line escaping on a later one —
//
//	e := &event{...} // stack-allocatable on its own
//	q.push(e)        // ...until it escapes into the queue: heap allocation
//
// The pass runs over the internal/lint/ir CFG of each //vsnoop:hotpath
// body, tracking for each local the set of allocation sites (&T{...},
// new(T), &local) it may hold, and reports AT THE ALLOCATION SITE when one
// reaches an escape sink: a return, a channel send, a store anywhere but a
// plain local, or a call argument. Go's own escape analysis makes exactly
// this judgment at compile time; the lint version makes the regression
// visible in review instead of as a flaky AllocsPerRun gate.
//
// &local is sunk only by returns, sends, and stores — a pointer argument
// to a call commonly stays on the stack (the callee does not leak it), and
// flagging every &x passed to a helper would bury the real findings.
// Composite-literal and new() addresses are flagged on call sinks too:
// a hot path has no business constructing a fresh object per event,
// escaping or not barely matters once it crosses a call boundary.

// escFact maps each local to the allocation-site expressions whose result
// it may hold.
type escFact map[*types.Var]map[ast.Expr]bool

// escScan is one hot-path body's escape analysis.
type escScan struct {
	info     *types.Info
	rep      func(token.Pos, string)
	desc     map[ast.Expr]string // alloc site -> description for the finding
	reported map[ast.Expr]bool   // one finding per alloc site
}

func checkHotEscapes(pkg *Package, fd *ast.FuncDecl, rep func(token.Pos, string)) {
	fn := ir.BuildDecl(pkg.Info, fd)
	if fn == nil {
		return
	}
	s := &escScan{
		info:     pkg.Info,
		rep:      rep,
		desc:     make(map[ast.Expr]string),
		reported: make(map[ast.Expr]bool),
	}
	a := ir.ForwardAnalysis[escFact]{
		Entry:    func(*ir.Func) escFact { return make(escFact) },
		Bottom:   func() escFact { return make(escFact) },
		Copy:     copyEscFact,
		Join:     joinEscFact,
		Transfer: func(f escFact, ins *ir.Instr) { s.transfer(f, ins) },
	}
	in := ir.Forward(fn, a)
	ir.Replay(fn, a, in, func(fact escFact, ins *ir.Instr) { s.check(fact, ins) })
}

func copyEscFact(f escFact) escFact {
	g := make(escFact, len(f))
	for v, set := range f {
		s := make(map[ast.Expr]bool, len(set))
		for e := range set {
			s[e] = true
		}
		g[v] = s
	}
	return g
}

func joinEscFact(dst, src escFact) bool {
	changed := false
	for v, set := range src {
		d := dst[v]
		if d == nil {
			d = make(map[ast.Expr]bool, len(set))
			dst[v] = d
		}
		for e := range set {
			if !d[e] {
				d[e] = true
				changed = true
			}
		}
	}
	return changed
}

func (s *escScan) transfer(f escFact, ins *ir.Instr) {
	for _, v := range ins.Defs {
		delete(f, v)
	}
	switch ins.Op {
	case ir.OpAssign, ir.OpDecl:
		if len(ins.Lhs) != len(ins.Rhs) {
			return
		}
		for i, lhs := range ins.Lhs {
			v := localVar(s.info, unparen(lhs))
			if v == nil {
				continue
			}
			if set := s.holdings(f, ins.Rhs[i]); len(set) > 0 {
				f[v] = set
			}
		}
	}
}

// holdings returns the allocation sites the value of e may be: the site
// itself when e allocates directly, or the tracked set when e is a local.
func (s *escScan) holdings(f escFact, e ast.Expr) map[ast.Expr]bool {
	if site, what := s.allocSite(e); site != nil {
		s.desc[site] = what
		return map[ast.Expr]bool{site: true}
	}
	if v := localVar(s.info, unparen(e)); v != nil {
		if set := f[v]; len(set) > 0 {
			out := make(map[ast.Expr]bool, len(set))
			for a := range set {
				out[a] = true
			}
			return out
		}
	}
	return nil
}

// allocSite recognizes the heap-allocation producers the pass tracks.
func (s *escScan) allocSite(e ast.Expr) (ast.Expr, string) {
	switch x := unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return nil, ""
		}
		switch t := unparen(x.X).(type) {
		case *ast.CompositeLit:
			return x, "address of composite literal"
		case *ast.Ident:
			if v := localVar(s.info, t); v != nil {
				return x, "address of local " + t.Name
			}
		}
	case *ast.CallExpr:
		if isBuiltinCall(s.info, x, "new") && len(x.Args) == 1 {
			return x, "new(" + types.ExprString(x.Args[0]) + ")"
		}
	}
	return nil, ""
}

// localOnly reports whether the alloc site is &local, whose call-argument
// uses are exempt (see the pass doc).
func (s *escScan) localOnly(site ast.Expr) bool {
	u, ok := site.(*ast.UnaryExpr)
	if !ok {
		return false
	}
	_, isLit := unparen(u.X).(*ast.CompositeLit)
	return !isLit
}

func (s *escScan) sink(f escFact, e ast.Expr, how string, callSink bool) {
	for site := range s.holdings(f, e) {
		if s.reported[site] || (callSink && s.localOnly(site)) {
			continue
		}
		s.reported[site] = true
		s.rep(site.Pos(), s.desc[site]+" escapes to the heap ("+how+
			"); reuse a pooled or preallocated object, or waive with //lint:alloc <reason>")
	}
}

func (s *escScan) check(f escFact, ins *ir.Instr) {
	switch ins.Op {
	case ir.OpReturn:
		for _, e := range ins.Rhs {
			s.sink(f, e, "returned", false)
		}
	case ir.OpSend:
		for _, e := range ins.Rhs {
			s.sink(f, e, "sent on a channel", false)
		}
	case ir.OpAssign:
		for i, lhs := range ins.Lhs {
			if localVar(s.info, unparen(lhs)) != nil {
				continue // plain local rebinding: tracked, not an escape
			}
			if i < len(ins.Rhs) && len(ins.Lhs) == len(ins.Rhs) {
				s.sink(f, ins.Rhs[i], "stored in "+types.ExprString(lhs), false)
			}
		}
	}
	// Call-argument sinks, wherever calls appear in the instruction.
	ins.Exprs(func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // a literal's body is not this hot path
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, known := s.info.Types[unparen(call.Fun)]
			if known && (tv.IsType() || tv.IsBuiltin()) {
				// Conversions never escape their operand by themselves;
				// the only escaping builtin is append, whose result is
				// tracked as a slice (the arg lives in its backing array).
				if !isBuiltinCall(s.info, call, "append") {
					return true
				}
			}
			for _, arg := range call.Args {
				s.sink(f, arg, "passed to "+types.ExprString(call.Fun), true)
			}
			return true
		})
	})
}
