// Package lockorder implements the smarth-vet analyzer for the
// namenode's one-lock rule (DESIGN.md §12): Namenode.mu is the only
// namenode mutex, exported methods take it, and nothing that runs while
// it is held takes it again — sync.Mutex is not reentrant, so a second
// acquire is a self-deadlock. The analyzer walks each function body's
// calls in source order, counting the acquisitions held, and reports:
//
//   - acquiring Namenode.mu while already holding it;
//   - calling, while holding it, a *Namenode method whose body takes
//     it — directly or through other *Namenode methods — which is the
//     same deadlock one call away (an RPC handler calling another
//     handler).
//
// The lock is recognized structurally: `x.mu.Lock()` (or RLock) where
// x's type is named Namenode and mu is a sync mutex; Unlock/RUnlock
// releases, and a deferred Unlock is treated as held until return. A
// nested block starts from the count where it begins and leaves it
// unchanged for the code after it, so a branch that unlocks and returns
// keeps the lock held below it. A call in a go statement, in a deferred
// call or in a function literal does not run under the caller's lock
// and is not reported.
//
// Known limits (DESIGN.md §13): which methods lock is worked out from
// the package's own method bodies — a lock taken through an interface
// or a function value is invisible. A lock released on both arms of an
// if/else still counts as held after it, so a locking call there is
// reported although it is safe; the tree has no such shape.
package lockorder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockorder analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check that Namenode.mu is never acquired while already held, " +
		"directly or by calling a Namenode method that takes it",
	Run: run,
}

// lockType and lockField name the one checked mutex: Namenode.mu.
const (
	lockType  = "Namenode"
	lockField = "mu"
)

// op classifies a call as an operation on Namenode.mu.
type op int

const (
	notLock op = iota
	acquire
	release
)

func run(pass *analysis.Pass) error {
	locking := lockingMethods(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walk(pass, locking, fd.Body, 0)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					// A literal starts with the lock not held: goroutines
					// and callbacks run on their own.
					walk(pass, locking, lit.Body, 0)
				}
				return true
			})
		}
	}
	return nil
}

// lockingMethods returns the *Namenode methods declared in the package
// whose body takes Namenode.mu, directly or by calling another such
// method (a fixpoint over the package's method bodies).
func lockingMethods(pass *analysis.Pass) map[*types.Func]bool {
	bodies := make(map[*types.Func]*ast.BlockStmt)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && isNamenodeMethod(fn) {
				bodies[fn] = fd.Body
			}
		}
	}
	locking := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for fn, body := range bodies {
			if !locking[fn] && takesLock(pass, locking, body) {
				locking[fn] = true
				changed = true
			}
		}
	}
	return locking
}

// takesLock reports whether body acquires Namenode.mu or calls a method
// already known to, on its own goroutine.
func takesLock(pass *analysis.Pass, locking map[*types.Func]bool, body *ast.BlockStmt) bool {
	found := false
	inspectCalls(body, func(call *ast.CallExpr) {
		if mutexOp(pass, call) == acquire || locking[calledMethod(pass, call)] {
			found = true
		}
	})
	return found
}

// inspectCalls visits the calls in n that run on the enclosing
// function's goroutine before it returns: not those inside function
// literals, go statements or deferred calls.
func inspectCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// isNamenodeMethod reports whether fn has a Namenode or *Namenode
// receiver.
func isNamenodeMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == lockType
}

// calledMethod resolves the method a call invokes, or nil.
func calledMethod(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	return nil
}

// mutexOp classifies a call as an operation on Namenode.mu.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) op {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return notLock
	}
	holder, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || holder.Sel.Name != lockField || !isMutexField(pass.TypesInfo, holder) {
		return notLock
	}
	named := analysis.NamedReceiverType(pass.TypesInfo, holder.X)
	if named == nil || named.Obj().Name() != lockType {
		return notLock
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return acquire
	case "Unlock", "RUnlock":
		return release
	}
	return notLock
}

// isMutexField reports whether sel resolves to a sync.Mutex or
// sync.RWMutex field.
func isMutexField(info *types.Info, sel *ast.SelectorExpr) bool {
	tv, ok := info.Types[sel]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// walk visits the calls in n in source order with h acquisitions of
// Namenode.mu held, reporting a second acquire and a call to a locking
// method under the lock. A nested block — an if or loop body, a case —
// starts from the count where it begins, and the code after it
// continues from that same count: a branch that unlocks and returns
// does not release the lock for what follows.
func walk(pass *analysis.Pass, locking map[*types.Func]bool, n ast.Node, h int) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			if m != n {
				walk(pass, locking, m, h)
				return false
			}
		case *ast.CallExpr:
			switch mutexOp(pass, m) {
			case acquire:
				if h > 0 {
					pass.Reportf(m.Pos(), "acquires %s.%s while already holding it", lockType, lockField)
				}
				h++
			case release:
				if h > 0 {
					h--
				}
			case notLock:
				if fn := calledMethod(pass, m); h > 0 && locking[fn] {
					pass.Reportf(m.Pos(), "calls %s.%s, which takes %s.%s, while holding it", lockType, fn.Name(), lockType, lockField)
				}
			}
		}
		return true
	})
}
