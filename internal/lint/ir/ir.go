// Package ir is the stdlib-only (go/ast + go/types) SSA-lite intermediate
// representation underneath vsnoop-lint's flow-sensitive analyzers. It
// deliberately stops short of full SSA: there is no phi construction and no
// value renaming. Instead it gives analyzers the three things the PR-4
// syntax walks could not see through:
//
//   - a control-flow graph of basic blocks over the original statements,
//     so facts can be propagated flow-sensitively (loops converge by
//     fixpoint, branches join by union);
//   - reaching definitions and def-use chains over *types.Var, so an
//     analyzer can ask "which assignments can this identifier observe?"
//     and trace a value through local aliases;
//   - a generic forward dataflow solver and an interprocedural fixpoint
//     engine, so client lattices (domainown's provenance facts)
//     plug in without re-implementing worklists.
//
// Instructions keep pointers into the original AST rather than lowering to
// an opcode soup: the analyzers built on top (maprange, domainown) report
// at source positions and pattern-match on expressions,
// so the AST is the natural operand representation. What the IR adds is
// ORDER — a linearization of control flow the AST does not expose.
package ir

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Func is the IR of one function body: a CFG whose blocks hold the body's
// statements lowered to instructions, plus the entry values (receiver,
// parameters, named results, and free variables for literals) every
// forward analysis seeds its initial fact from.
type Func struct {
	Name string
	Info *types.Info
	Sig  *types.Signature
	Decl ast.Node // *ast.FuncDecl or *ast.FuncLit

	Entry  *Block
	Exit   *Block // synthetic; every return edges here
	Blocks []*Block

	// EntryVars are the variables live-on-entry: receiver, parameters, and
	// named results. Free variables of function literals are not listed —
	// clients detect them with FreeVar.
	EntryVars []*types.Var
}

// Block is one basic block: straight-line instructions with branch-free
// control flow, linked to successors and predecessors.
type Block struct {
	Index  int
	What   string // "entry", "if.then", "for.head", ... for debugging
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
}

// Op discriminates instruction kinds.
type Op uint8

const (
	// OpAssign is an assignment or short declaration: Lhs Tok Rhs.
	OpAssign Op = iota
	// OpDecl is a var declaration (one ValueSpec): Lhs are the name
	// identifiers, Rhs the initializers (possibly empty).
	OpDecl
	// OpIncDec is X++ or X--.
	OpIncDec
	// OpEval evaluates X for effect (expression statements, switch tags,
	// case expressions).
	OpEval
	// OpCond evaluates the branch condition X; the enclosing block's two
	// successors are the true and false arms (in that order).
	OpCond
	// OpRange is a range-loop header: Key, Value := range X per iteration.
	// The enclosing block's successors are the body and the exit join.
	OpRange
	// OpReturn returns Rhs.
	OpReturn
	// OpSend sends Rhs[0] on channel X.
	OpSend
	// OpGo launches call X on a new goroutine.
	OpGo
	// OpDefer defers call X.
	OpDefer
	// OpTypeSwitchBind binds a type-switch clause's implicit variable
	// (Defs) from the switch operand X.
	OpTypeSwitchBind
)

// Instr is one instruction. Operand fields are populated per Op; unneeded
// fields are nil.
type Instr struct {
	Op   Op
	Pos  token.Pos
	Stmt ast.Stmt // originating statement, when there is exactly one

	X          ast.Expr   // cond / eval / range operand / chan / call
	Lhs, Rhs   []ast.Expr // assignment sides, return values
	Tok        token.Token
	Key, Value ast.Expr // range loop variables (may be nil)

	// Defs are the local variables this instruction (re)defines: short
	// declarations, plain-identifier assignments, inc/dec, var decls,
	// range keys/values, and type-switch bindings.
	Defs []*types.Var
}

// FreeVar reports whether v is free in fn: referenced by the body but
// neither an entry variable nor defined by any instruction. For function
// literals these are the captured variables; for declared functions only
// package-level objects are free, and those return false (they are not
// *local* state).
func (fn *Func) FreeVar(v *types.Var) bool {
	if v == nil || v.IsField() {
		return false
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return false // package-level, addressed directly rather than captured
	}
	var lo, hi token.Pos
	switch d := fn.Decl.(type) {
	case *ast.FuncDecl:
		lo, hi = d.Pos(), d.End()
	case *ast.FuncLit:
		lo, hi = d.Pos(), d.End()
	default:
		return false
	}
	return v.Pos() < lo || v.Pos() > hi
}

// LocalDefs returns every variable defined by some instruction, for
// analyses that need the def universe up front.
func (fn *Func) LocalDefs() []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			for _, v := range ins.Defs {
				if v != nil && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// Exprs calls f on every operand expression of the instruction, in
// evaluation order (Rhs before Lhs for assignments, matching Go).
func (ins *Instr) Exprs(f func(ast.Expr)) {
	for _, e := range ins.Rhs {
		if e != nil {
			f(e)
		}
	}
	if ins.X != nil {
		f(ins.X)
	}
	for _, e := range ins.Lhs {
		if e != nil {
			f(e)
		}
	}
}
