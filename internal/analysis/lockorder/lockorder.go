// Package lockorder implements the smarth-vet analyzer for the
// namenode's one-lock rule (DESIGN.md §12): Namenode.mu is the only
// namenode mutex, exported methods take it, and nothing that runs while
// it is held takes it again — sync.Mutex is not reentrant, so a second
// acquire is a self-deadlock. The analyzer runs a forward walk over each
// function body (internal/analysis/flow) tracking whether the lock is
// held and reports:
//
//   - acquiring Namenode.mu while already holding it;
//   - calling, while holding it, a *Namenode method whose body takes
//     it — directly or through other *Namenode methods — which is the
//     same deadlock one call away (an RPC handler calling another
//     handler).
//
// The lock is recognized structurally: `x.mu.Lock()` (and TryLock/
// RLock) where x's type is named Namenode and mu is a sync mutex. A
// TryLock used as an if condition acquires only on the taken branch.
// Unlock/RUnlock releases; a deferred Unlock is treated as held until
// return. A call in a go statement, in a deferred call or in a function
// literal does not run under the caller's lock and is not reported.
//
// Known limits (DESIGN.md §13): which methods lock is worked out from
// the package's own method bodies — a lock taken through an interface
// or a function value is invisible — and goto-using functions are
// skipped.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
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

// held counts Namenode.mu acquisitions on the current path.
type held int

// op classifies a call as an operation on Namenode.mu.
type op int

const (
	notLock op = iota
	acquire
	tryAcquire
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
			analyzeBody(pass, locking, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					// A literal starts with the lock not held: goroutines
					// and callbacks run on their own.
					analyzeBody(pass, locking, lit.Body)
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
		if o := mutexOp(pass, call); o == acquire || o == tryAcquire || locking[calledMethod(pass, call)] {
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
	case "TryLock", "TryRLock":
		return tryAcquire
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

type fctx struct {
	pass    *analysis.Pass
	locking map[*types.Func]bool
}

func analyzeBody(pass *analysis.Pass, locking map[*types.Func]bool, body *ast.BlockStmt) {
	fc := &fctx{pass: pass, locking: locking}
	interp := &flow.Interp[held]{
		Merge: func(a, b held) held { return max(a, b) }, // held on either path: held
		Exec:  fc.exec,
		Expr:  func(h held, e ast.Expr) held { return fc.visit(h, e) },
		Cond:  fc.cond,
	}
	interp.Func(body, 0)
}

// acquire checks and records taking the lock.
func (fc *fctx) acquire(h held, pos token.Pos) held {
	if h > 0 {
		fc.pass.Reportf(pos, "acquires %s.%s while already holding it", lockType, lockField)
	}
	return h + 1
}

// exec handles statements. A deferred call runs at return, so a
// deferred Unlock keeps the lock held to the end of the function.
func (fc *fctx) exec(h held, st ast.Stmt) held {
	if _, ok := st.(*ast.RangeStmt); ok {
		return h // the operand went through visit; this is the key/value binding
	}
	return fc.visit(h, st)
}

// visit walks the calls in n in order. A TryLock outside condition
// position gates a critical section this walk cannot see; treating it
// as not acquiring never false-alarms.
func (fc *fctx) visit(h held, n ast.Node) held {
	inspectCalls(n, func(call *ast.CallExpr) {
		switch mutexOp(fc.pass, call) {
		case acquire:
			h = fc.acquire(h, call.Pos())
		case release:
			if h > 0 {
				h--
			}
		case notLock:
			if fn := calledMethod(fc.pass, call); h > 0 && fc.locking[fn] {
				fc.pass.Reportf(call.Pos(), "calls %s.%s, which takes %s.%s, while holding it", lockType, fn.Name(), lockType, lockField)
			}
		}
	})
	return h
}

// cond gives `if x.mu.TryLock()` its precise semantics: the lock is
// held only on the taken branch.
func (fc *fctx) cond(h held, cond ast.Expr, taken bool) held {
	if call, ok := ast.Unparen(cond).(*ast.CallExpr); ok && taken && mutexOp(fc.pass, call) == tryAcquire {
		return fc.acquire(h, call.Pos())
	}
	return h
}
