// Package obsnilsafe implements the smarth-vet analyzer keeping
// internal/obs "nil-safe by construction" (DESIGN.md §8): every
// exported pointer-receiver method in the obs package must guard its
// receiver against nil before touching a field, so instrumentation can
// be threaded through hot paths unconditionally and disabled by
// leaving it nil. For each exported method on an exported type the
// analyzer finds the first receiver *field* access (method calls on
// the receiver are exempt — callees carry their own guards) and
// requires it to be dominated by a nil guard:
//
//	func (c *Counter) Inc() {
//		if c != nil { c.v.Add(1) }      // guarded region form
//	}
//
//	func (h *Histogram) Observe(v int64) {
//		if h == nil { return }          // early-return form
//		h.count.Add(1)
//	}
//
// Compound guards compose the obvious way: `if c == nil || off {
// return }` guards everything after it, `if c != nil && ready { ... }`
// guards its body. Value receivers and methods that never dereference
// the receiver are exempt. The obs package is matched by package name,
// so analysistest fixtures named obs are checked identically: a fixture
// is loaded under its full testdata import path, and diagnostics name
// the receiver's type by package name, (*obs.Counter), either way.
//
// Known limit (DESIGN.md §13): domination is judged on the statement
// structure, not a full CFG — a guard hidden behind a helper call or a
// negated double-branch is not recognized; write the two idiomatic
// forms above.
package obsnilsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the obsnilsafe analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name: "obsnilsafe",
	Doc: "require every exported pointer-receiver method in internal/obs " +
		"to nil-guard its receiver before field access, keeping the " +
		"package's nil-safe contract machine-checked",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "obs" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			recv := receiverVar(pass, fd)
			if recv == nil {
				continue // value receiver, anonymous, or unexported type
			}
			// Name the receiver's type the way the source spells it,
			// (*obs.Counter), whatever import path the package has.
			recvType := types.TypeString(recv.Type(), func(p *types.Package) string { return p.Name() })
			c := &checker{pass: pass, recv: recv, recvType: recvType, method: fd.Name.Name}
			c.block(fd.Body.List, false)
		}
	}
	return nil
}

// receiverVar returns the receiver variable when the method has a
// named pointer receiver on an exported type, else nil.
func receiverVar(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
	if !ok {
		return nil
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return nil // value receivers cannot be nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !named.Obj().Exported() {
		return nil // methods on unexported types are not public API
	}
	return obj
}

type checker struct {
	pass     *analysis.Pass
	recv     *types.Var
	recvType string
	method   string
	reported bool
}

// block walks statements in order, tracking whether the receiver is
// known non-nil (guarded) at each point.
func (c *checker) block(stmts []ast.Stmt, guarded bool) {
	for _, st := range stmts {
		if c.reported {
			return
		}
		guarded = c.stmt(st, guarded)
	}
}

// stmt checks one statement and returns the guardedness holding after
// it at the same nesting level.
func (c *checker) stmt(st ast.Stmt, guarded bool) bool {
	switch st := st.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			c.check(st.Init, guarded)
		}
		// Early-return guard: `if recv == nil { return }` (possibly
		// `recv == nil || more`) with a terminal body means the rest of
		// this block runs with recv non-nil.
		if !guarded && c.condImpliesNil(st.Cond) && terminal(st.Body) {
			c.block(st.Body.List, guarded) // body may not touch fields either
			if st.Else != nil {
				c.elseBranch(st.Else, true)
			}
			return true
		}
		c.check(st.Cond, guarded)
		thenGuarded := guarded || c.condImpliesNonNil(st.Cond)
		c.block(st.Body.List, thenGuarded)
		if st.Else != nil {
			c.elseBranch(st.Else, guarded)
		}
		return guarded
	case *ast.BlockStmt:
		c.block(st.List, guarded)
		return guarded
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		// Compound statements: check every nested node under the current
		// guardedness (a guard established inside does not escape, which
		// only over-reports never under-reports — and the obs idioms
		// guard at the top of the method).
		c.check(st, guarded)
		return guarded
	default:
		c.check(st, guarded)
		return guarded
	}
}

func (c *checker) elseBranch(els ast.Stmt, guarded bool) {
	switch els := els.(type) {
	case *ast.BlockStmt:
		c.block(els.List, guarded)
	default:
		c.stmt(els, guarded)
	}
}

// check reports the first unguarded receiver field access under n.
func (c *checker) check(n ast.Node, guarded bool) {
	if guarded || c.reported || n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if c.reported {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			return true // closures still touch the same receiver
		case *ast.IfStmt:
			// Nested guarded regions inside compound statements.
			if c.condImpliesNonNil(node.Cond) {
				c.check(node.Init, guarded)
				c.check(node.Cond, true)
				if node.Else != nil {
					c.check(node.Else, guarded)
				}
				return false
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(node.X).(*ast.Ident); ok {
				if c.pass.TypesInfo.Uses[id] == c.recv && c.isFieldAccess(node) {
					c.pass.Reportf(node.Pos(), "(%s).%s accesses receiver field %s without a nil guard; internal/obs is nil-safe by contract",
						c.recvType, c.method, node.Sel.Name)
					c.reported = true
					return false
				}
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(node.X).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.recv {
				c.pass.Reportf(node.Pos(), "(%s).%s dereferences its receiver without a nil guard; internal/obs is nil-safe by contract",
					c.recvType, c.method)
				c.reported = true
				return false
			}
		}
		return true
	})
}

// isFieldAccess reports whether the selection is a struct field (method
// values and calls are exempt: callees guard themselves).
func (c *checker) isFieldAccess(sel *ast.SelectorExpr) bool {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	return ok && selection.Kind() == types.FieldVal
}

// condImpliesNonNil reports whether the condition evaluating true
// implies the receiver is non-nil (`recv != nil`, possibly `&&` more).
func (c *checker) condImpliesNonNil(cond ast.Expr) bool {
	switch cond := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			return c.condImpliesNonNil(cond.X) || c.condImpliesNonNil(cond.Y)
		case token.NEQ:
			return c.comparesRecvToNil(cond)
		}
	}
	return false
}

// condImpliesNil reports whether the condition evaluating false implies
// the receiver is non-nil (`recv == nil`, possibly `||` more).
func (c *checker) condImpliesNil(cond ast.Expr) bool {
	switch cond := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LOR:
			return c.condImpliesNil(cond.X) || c.condImpliesNil(cond.Y)
		case token.EQL:
			return c.comparesRecvToNil(cond)
		}
	}
	return false
}

func (c *checker) comparesRecvToNil(b *ast.BinaryExpr) bool {
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNil(y) {
		return c.isRecv(x)
	}
	if isNil(x) {
		return c.isRecv(y)
	}
	return false
}

func (c *checker) isRecv(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && c.pass.TypesInfo.Uses[id] == c.recv
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminal reports whether a block always leaves the function (its last
// statement is a return or a panic call).
func terminal(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
