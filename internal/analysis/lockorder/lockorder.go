// Package lockorder implements the smarth-vet analyzer encoding the
// namenode lock ranking of DESIGN.md §12: namesystem (rank 1) →
// datanode manager (rank 2) → replication manager (rank 3) → admin
// mutex (rank 4), acquired strictly left to right. The analyzer runs a
// forward walk over each function body (internal/analysis/flow)
// tracking which ranks are held and reports:
//
//   - acquiring a lower-ranked lock while holding a higher-ranked one
//     (the inversion class that deadlocks two namenode operations
//     running in opposite order);
//   - acquiring a lock of a rank that is already held (each rank is
//     one sync.Mutex, so this is a self-deadlock).
//
// Locks are recognized structurally: `x.mu.Lock()` (and TryLock/RLock)
// where x's type is one of the ranked namenode structs — namesystem,
// datanodeManager, replicationManager, Namenode. A TryLock used as an
// if condition acquires only on the taken branch. Unlock/RUnlock
// releases; a deferred Unlock is treated as held until return, which is
// exactly what ordering needs.
//
// Known limits (DESIGN.md §13): the check is intra-procedural — a
// helper that locks internally is invisible to its callers — and
// goto-using functions are skipped.
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
	Doc: "check that namenode mutexes are acquired in the documented " +
		"rank order (namesystem -> datanode manager -> replication " +
		"manager -> admin) and never acquired while already held",
	Run: run,
}

// rankOf maps the ranked namenode struct type names to their position
// in the documented order. The admin mutex is a field of Namenode
// itself.
var rankOf = map[string]int{
	"namesystem":         1,
	"datanodeManager":    2,
	"replicationManager": 3,
	"Namenode":           4,
}

// rankName renders a rank for diagnostics.
var rankName = map[int]string{
	1: "namesystem",
	2: "datanode manager",
	3: "replication manager",
	4: "admin mutex",
}

// state tracks how many locks of each rank are held on the current
// path.
type state struct {
	held map[int]int
}

func (s state) clone() state {
	m := make(map[int]int, len(s.held))
	for r, n := range s.held {
		m[r] = n
	}
	return state{held: m}
}

// merge keeps the maximum held count per rank: a lock held on either
// joining path must be assumed held after the join.
func (s state) merge(o state) state {
	for r, n := range o.held {
		if n > s.held[r] {
			s.held[r] = n
		}
	}
	return s
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeBody(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					// A literal starts with no locks held: goroutines and
					// callbacks must do their own ordered acquisition.
					analyzeBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

type fctx struct {
	pass *analysis.Pass
}

func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt) {
	fc := &fctx{pass: pass}
	interp := &flow.Interp[state]{
		Clone: func(s state) state { return s.clone() },
		Merge: func(a, b state) state { return a.merge(b) },
		Exec:  fc.exec,
		Expr:  fc.scan,
		Cond:  fc.cond,
	}
	interp.Func(body, state{held: make(map[int]int)})
}

// mutexRank classifies a call as a ranked mutex operation. acquire is
// false for Unlock/RUnlock; TryLocks used as conditions are handled by
// cond.
func (fc *fctx) mutexRank(call *ast.CallExpr) (rank int, acquire, try, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return 0, false, false, false
	}
	// x.mu.Lock(): rank by the named struct type holding the mutex.
	holder, isSel2 := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel2 {
		return 0, false, false, false
	}
	named := analysis.NamedReceiverType(fc.pass.TypesInfo, holder.X)
	if named == nil {
		return 0, false, false, false
	}
	r, ranked := rankOf[named.Obj().Name()]
	if !ranked || !isMutexField(fc.pass.TypesInfo, holder) {
		return 0, false, false, false
	}
	switch sel.Sel.Name {
	case "Unlock", "RUnlock":
		return r, false, false, true
	case "TryLock", "TryRLock":
		return r, true, true, true
	default:
		return r, true, false, true
	}
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

// acquire checks and records taking a lock of rank r.
func (fc *fctx) acquire(s state, r int, pos token.Pos) state {
	for held, n := range s.held {
		if n > 0 && held > r {
			fc.pass.Reportf(pos, "acquires %s (rank %d) while holding %s (rank %d); the documented order is namesystem -> datanodes -> replication -> admin",
				rankName[r], r, rankName[held], held)
		}
	}
	if s.held[r] > 0 {
		fc.pass.Reportf(pos, "acquires the %s lock while already holding it", rankName[r])
	}
	s.held[r]++
	return s
}

func (fc *fctx) releaseRank(s state, r int) state {
	if s.held[r] > 0 {
		s.held[r]--
	}
	return s
}

// exec handles statement-level lock operations.
func (fc *fctx) exec(s state, st ast.Stmt) state {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return fc.scan(s, st.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held until return — correct
		// for ordering. A deferred Lock (pathological) is ignored.
		if r, acq, _, ok := fc.mutexRank(st.Call); ok && acq {
			return fc.acquire(s, r, st.Call.Pos())
		}
		return s
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s = fc.scan(s, rhs)
		}
		return s
	case *ast.GoStmt, *ast.RangeStmt:
		return s
	default:
		return s
	}
}

// scan finds lock operations in expression position (including bare
// TryLock results assigned to variables, which acquire conservatively).
func (fc *fctx) scan(s state, e ast.Expr) state {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return s
	}
	if r, acq, try, ok := fc.mutexRank(call); ok {
		if acq {
			if try {
				// TryLock in condition position is handled by cond with
				// branch precision; elsewhere its result gates the
				// critical section, which this walk cannot see — treating
				// it as unheld under-approximates and never false-alarms.
				return s
			}
			return fc.acquire(s, r, call.Pos())
		}
		return fc.releaseRank(s, r)
	}
	return s
}

// cond gives `if x.mu.TryLock()` its precise semantics: the lock is
// held only on the taken branch.
func (fc *fctx) cond(s state, cond ast.Expr, taken bool) state {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return s
	}
	if r, acq, try, ok := fc.mutexRank(call); ok && acq && try {
		if taken {
			return fc.acquire(s, r, call.Pos())
		}
		return s
	}
	return s
}
