// Package packetrelease implements the smarth-vet analyzer enforcing
// the pooled-buffer ownership contract of DESIGN.md §7: a
// *proto.Packet returned by Conn.ReadPacket or ReadPacketInto (whose
// Data may alias memory a Lender owns — the packet is still released
// exactly once; only its frame goes back), a *[]byte returned by
// bufpool.Get/GetCap, and the pooled frame rpc's readFrame reads a
// control-plane message into, is owned by the caller until released
// exactly once (Packet.Release / bufpool.Put), after which it must not
// be touched. The analyzer runs a forward abstract interpretation over
// each function body (internal/analysis/flow) tracking every owned
// value through branches, loops, and error-path refinement
// (`if err != nil` after `p, err := c.ReadPacket()` means p is nil on
// the taken branch), and reports:
//
//   - a return path on which an owned packet or buffer may still be
//     owned (missing Release/Put — the early-return leak class);
//   - a definite second release of the same value;
//   - a use of the value (field access or method call) on a path where
//     it has definitely been released;
//   - a pooled value discarded outright (blank assignment, or a bare
//     producer call statement);
//   - a loop iteration that rebinds the variable while the previous
//     iteration's value may still be owned;
//   - a pooled buffer held in a struct field (a transport ring, a
//     MemStore replica buffer) that is Put and then Put again, or still
//     sits in the field when the function returns: the holder must
//     clear or replace the field where it calls Put, or the next
//     Put-site returns the same buffer twice.
//
// Ownership transfer is modeled structurally: passing the value as a
// call argument, returning it, storing it into a field, map, slice,
// channel, or composite literal, capturing it in a function literal,
// or aliasing it to another variable all end tracking (the new holder
// carries the Put duty, per the bufpool godoc). The escape hatch for
// sites the analyzer cannot see — deliberate transfers through
// interfaces it misclassifies — is a `//smarth:owns-packet` comment on
// the binding line (or the line above), which disables tracking for
// values born there.
//
// Known limits (DESIGN.md §13): the analysis is intra-procedural (a
// callee that conditionally releases is modeled as a full transfer),
// goto-using functions are skipped, and correlated branch conditions
// can in principle produce a may-leak report on dead paths — annotate
// those sites rather than restructuring.
package packetrelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the packetrelease analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name: "packetrelease",
	Doc: "check that pooled packets (proto.Conn.ReadPacket, ReadPacketInto), buffers " +
		"(bufpool.Get/GetCap) and RPC frames (rpc.readFrame) are released " +
		"exactly once on every path and never used after release",
	Run: run,
}

// bits is the abstract state of one tracked value: a set of the
// conditions it may be in on some path reaching the program point.
type bits uint8

const (
	stOwned    bits = 1 << iota // holds the pool's buffer; release duty pending
	stUnborn                    // nil / error-path result; nothing to release
	stReleased                  // released; any dereference is a bug
	stEscaped                   // ownership transferred; tracking ends
	stDeferred                  // a registered defer will release it (sticky)
)

// state maps tracked variables to their abstract condition, and lists
// the field expressions (rendered, e.g. "w.rep.buf") that on some path
// were passed to bufpool.Put and not assigned since.
type state struct {
	vars map[*types.Var]bits
	put  map[string]bool
}

func (s state) clone() state {
	m := make(map[*types.Var]bits, len(s.vars))
	for v, b := range s.vars {
		m[v] = b
	}
	put := make(map[string]bool, len(s.put))
	for f := range s.put {
		put[f] = true
	}
	return state{vars: m, put: put}
}

func (s state) merge(o state) state {
	for f := range o.put {
		s.put[f] = true
	}
	for v, b := range o.vars {
		if cur, ok := s.vars[v]; ok {
			s.vars[v] = cur | b
		} else {
			s.vars[v] = b | stUnborn // unborn on the paths that lacked it
		}
	}
	for v := range s.vars {
		if _, ok := o.vars[v]; !ok {
			s.vars[v] |= stUnborn
		}
	}
	return s
}

// kind of producer call.
type producerKind int

const (
	prodNone   producerKind = iota
	prodPacket              // (p *proto.Packet, err error) = conn.ReadPacket() / ReadPacketInto(lender)
	prodBuf                 // bp *[]byte = bufpool.Get/GetCap(n)
	prodFrame               // (fr *[]byte, err error) = readFrame(conn), in package rpc
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// Every function body — declarations and literals — is analyzed
		// independently; a literal's captures are escapes in its parent.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeBody(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// fctx is the per-function analysis context.
type fctx struct {
	pass  *analysis.Pass
	body  *ast.BlockStmt
	pairs map[*types.Var]*types.Var // error var -> packet var of the same binding
	names map[*types.Var]string     // diagnostic names for tracked vars
}

func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt) {
	fc := &fctx{
		pass:  pass,
		body:  body,
		pairs: make(map[*types.Var]*types.Var),
		names: make(map[*types.Var]string),
	}
	interp := &flow.Interp[state]{
		Clone:    func(s state) state { return s.clone() },
		Merge:    func(a, b state) state { return a.merge(b) },
		Exec:     fc.exec,
		Expr:     fc.scanValue,
		Cond:     fc.refine,
		AtReturn: fc.atReturn,
	}
	interp.Func(body, state{vars: make(map[*types.Var]bits), put: make(map[string]bool)})
}

// producer classifies a call as a pooled-value source.
func (fc *fctx) producer(call *ast.CallExpr) producerKind {
	fn := analysis.Callee(fc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return prodNone
	}
	switch {
	case (fn.Name() == "ReadPacket" || fn.Name() == "ReadPacketInto") && fn.Pkg().Name() == "proto":
		return prodPacket
	case (fn.Name() == "Get" || fn.Name() == "GetCap") && fn.Pkg().Name() == "bufpool":
		return prodBuf
	case fn.Name() == "readFrame" && fn.Pkg().Name() == "rpc":
		return prodFrame
	}
	return prodNone
}

// releaseTarget returns the variable a call releases, if it is a
// release call on a tracked variable (p.Release() or bufpool.Put(bp)).
func (fc *fctx) releaseTarget(call *ast.CallExpr) *types.Var {
	fn := analysis.Callee(fc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Name() == "Release" && fn.Pkg().Name() == "proto" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return fc.trackedIdent(sel.X)
		}
	}
	if fn.Name() == "Put" && fn.Pkg().Name() == "bufpool" && len(call.Args) == 1 {
		return fc.trackedIdent(call.Args[0])
	}
	return nil
}

// putField returns the rendered field expression a bufpool.Put call
// returns to the pool (bufpool.Put(x.f)), or "".
func (fc *fctx) putField(call *ast.CallExpr) string {
	fn := analysis.Callee(fc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != "Put" || fn.Pkg().Name() != "bufpool" || len(call.Args) != 1 {
		return ""
	}
	if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
		return types.ExprString(sel)
	}
	return ""
}

// trackedIdent resolves expr to a local variable object when expr is a
// plain identifier.
func (fc *fctx) trackedIdent(expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := fc.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// exec is the transfer function for simple statements.
func (fc *fctx) exec(s state, st ast.Stmt) state {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return fc.assign(s, st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					s = fc.valueSpec(s, vs)
				}
			}
		}
		return s
	case *ast.DeferStmt:
		if v := fc.releaseTarget(st.Call); v != nil {
			if b, ok := s.vars[v]; ok {
				s.vars[v] = b | stDeferred
			}
			return s
		}
		return fc.scanValue(s, st.Call)
	case *ast.GoStmt:
		return fc.scanValue(s, st.Call)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if v := fc.releaseTarget(call); v != nil {
				return fc.release(s, v, call.Pos())
			}
			if k := fc.producer(call); k != prodNone && !fc.suppressed(st.Pos()) {
				fc.pass.Reportf(st.Pos(), "result of %s is discarded without Release/Put", callName(call))
				return s
			}
		}
		return fc.scanValue(s, st.X)
	case *ast.SendStmt:
		if v := fc.trackedVar(s, st.Value); v != nil {
			s.vars[v] = stEscaped
		} else {
			s = fc.scanValue(s, st.Value)
		}
		return fc.scanValue(s, st.Chan)
	case *ast.IncDecStmt:
		return fc.scanValue(s, st.X)
	case *ast.RangeStmt:
		return s // operand already scanned by the walker; key/value are fresh vars
	default:
		return s
	}
}

// trackedVar resolves expr to a variable currently in the state map.
func (fc *fctx) trackedVar(s state, expr ast.Expr) *types.Var {
	v := fc.trackedIdent(expr)
	if v == nil {
		return nil
	}
	if _, ok := s.vars[v]; !ok {
		return nil
	}
	return v
}

// assign handles births, rebindings, aliasing, and stores.
func (fc *fctx) assign(s state, st *ast.AssignStmt) state {
	// Birth: lhs bound directly from a producer call.
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			switch fc.producer(call) {
			case prodPacket, prodFrame:
				if len(st.Lhs) == 2 {
					return fc.birth(s, st, call, st.Lhs[0], st.Lhs[1])
				}
			case prodBuf:
				if len(st.Lhs) == 1 {
					return fc.birth(s, st, call, st.Lhs[0], nil)
				}
			}
		}
	}
	// Not a birth: right side first (escapes/uses), then left targets.
	for _, rhs := range st.Rhs {
		if v := fc.trackedVar(s, rhs); v != nil {
			s.vars[v] = stEscaped // aliased or stored; new holder owns it
		} else {
			s = fc.scanValue(s, rhs)
		}
	}
	for _, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := fc.pass.TypesInfo.Uses[id]
			if v, ok := obj.(*types.Var); ok {
				if b, tracked := s.vars[v]; tracked && b&stOwned != 0 && b&stEscaped == 0 && !fc.suppressed(st.Pos()) {
					fc.pass.Reportf(st.Pos(), "%s reassigned while its pooled value may still be owned (missing Release/Put)", fc.name(v))
				}
				delete(s.vars, v)
				// An error variable given a new value (the envelope parse
				// after `fr, err := readFrame(c)`) no longer says whether
				// the producer failed: `if err != nil` stops refining.
				delete(fc.pairs, v)
			}
			continue
		}
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			delete(s.put, types.ExprString(sel)) // cleared or given a new buffer
		}
		s = fc.scanValue(s, lhs) // x.f = ..., m[k] = ...: uses inside targets
	}
	return s
}

// valueSpec handles `var p, err = c.ReadPacket()` declarations.
func (fc *fctx) valueSpec(s state, vs *ast.ValueSpec) state {
	if len(vs.Values) == 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			switch fc.producer(call) {
			case prodPacket, prodFrame:
				if len(vs.Names) == 2 {
					return fc.birthIdents(s, vs.Pos(), call, vs.Names[0], vs.Names[1])
				}
			case prodBuf:
				if len(vs.Names) == 1 {
					return fc.birthIdents(s, vs.Pos(), call, vs.Names[0], nil)
				}
			}
		}
	}
	for _, v := range vs.Values {
		s = fc.scanValue(s, v)
	}
	return s
}

func (fc *fctx) birth(s state, st *ast.AssignStmt, call *ast.CallExpr, lhs, errLhs ast.Expr) state {
	for _, arg := range call.Args {
		s = fc.scanValue(s, arg)
	}
	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent {
		// Stored straight into a field, map, or slice element: the
		// structure owns it now (an escape, not a discard).
		return fc.scanValue(s, lhs)
	}
	var errID *ast.Ident
	if errLhs != nil {
		errID, _ = ast.Unparen(errLhs).(*ast.Ident)
	}
	return fc.birthIdents(s, st.Pos(), call, id, errID)
}

// birthIdents starts tracking the value bound to id (paired with errID
// for `if err != nil` refinement).
func (fc *fctx) birthIdents(s state, pos token.Pos, call *ast.CallExpr, id, errID *ast.Ident) state {
	if fc.suppressed(pos) {
		return s // //smarth:owns-packet: deliberate transfer, not tracked
	}
	if id == nil || id.Name == "_" {
		fc.pass.Reportf(pos, "result of %s is discarded without Release/Put", callName(call))
		return s
	}
	obj := fc.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = fc.pass.TypesInfo.Uses[id] // plain `=` rebinding
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return s
	}
	if b, tracked := s.vars[v]; tracked && b&stOwned != 0 && b&stEscaped == 0 {
		fc.pass.Reportf(pos, "%s rebound while the previous pooled value may still be owned (missing Release/Put)", fc.name(v))
	}
	// A packet or frame result may be nil (error return); a buffer is
	// always live.
	if errID != nil {
		s.vars[v] = stOwned | stUnborn
		if errID.Name != "_" {
			if errObj := fc.pass.TypesInfo.Defs[errID]; errObj != nil {
				if ev, ok := errObj.(*types.Var); ok {
					fc.pairs[ev] = v
				}
			} else if errObj, ok := fc.pass.TypesInfo.Uses[errID].(*types.Var); ok {
				fc.pairs[errObj] = v
			}
		}
	} else {
		s.vars[v] = stOwned
	}
	fc.names[v] = id.Name
	return s
}

// release transitions v to released, reporting a definite second
// release.
func (fc *fctx) release(s state, v *types.Var, pos token.Pos) state {
	b := s.vars[v]
	if b&(stOwned|stEscaped|stUnborn) == 0 && b&stReleased != 0 && !fc.suppressed(pos) {
		fc.pass.Reportf(pos, "%s is released a second time (Release/Put must be called exactly once)", fc.name(v))
	}
	s.vars[v] = stReleased | (b & stDeferred)
	return s
}

// use checks a dereference (field access or method call) of v.
func (fc *fctx) use(s state, v *types.Var, pos token.Pos) {
	b := s.vars[v]
	if b&(stOwned|stEscaped|stUnborn) == 0 && b&stReleased != 0 && !fc.suppressed(pos) {
		fc.pass.Reportf(pos, "%s is used after Release/Put returned it to the pool", fc.name(v))
	}
}

// scanValue walks an expression in value position, classifying tracked
// identifiers: dereferences are use-checked, transfer positions escape.
func (fc *fctx) scanValue(s state, e ast.Expr) state {
	switch e := e.(type) {
	case nil:
		return s
	case *ast.Ident:
		return s // bare value use (comparison, len argument via call case)
	case *ast.ParenExpr:
		return fc.scanValue(s, e.X)
	case *ast.SelectorExpr:
		if v := fc.trackedVar(s, e.X); v != nil {
			fc.use(s, v, e.Pos())
			return s
		}
		return fc.scanValue(s, e.X)
	case *ast.CallExpr:
		if v := fc.releaseTarget(e); v != nil {
			return fc.release(s, v, e.Pos())
		}
		if f := fc.putField(e); f != "" {
			if s.put[f] && !fc.suppressed(e.Pos()) {
				fc.pass.Reportf(e.Pos(), "%s is returned to the pool a second time (clear the field where it is Put)", f)
			}
			s.put[f] = true
			return s
		}
		// Method call on a tracked value: a dereference, not a transfer.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if v := fc.trackedVar(s, sel.X); v != nil {
				fc.use(s, v, e.Pos())
			} else {
				s = fc.scanValue(s, sel.X)
			}
		} else {
			s = fc.scanValue(s, e.Fun)
		}
		for _, arg := range e.Args {
			if v := fc.trackedVar(s, arg); v != nil {
				s.vars[v] = stEscaped // callee inherits the release duty
			} else {
				s = fc.scanValue(s, arg)
			}
		}
		return s
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := fc.trackedVar(s, e.X); v != nil {
				s.vars[v] = stEscaped
				return s
			}
		}
		return fc.scanValue(s, e.X)
	case *ast.StarExpr:
		if v := fc.trackedVar(s, e.X); v != nil {
			fc.use(s, v, e.Pos()) // *bp dereferences the pooled buffer
			return s
		}
		return fc.scanValue(s, e.X)
	case *ast.BinaryExpr:
		s = fc.scanValue(s, e.X)
		return fc.scanValue(s, e.Y)
	case *ast.IndexExpr:
		if v := fc.trackedVar(s, e.X); v != nil {
			fc.use(s, v, e.Pos())
		} else {
			s = fc.scanValue(s, e.X)
		}
		return fc.scanValue(s, e.Index)
	case *ast.SliceExpr:
		if v := fc.trackedVar(s, e.X); v != nil {
			fc.use(s, v, e.Pos())
		} else {
			s = fc.scanValue(s, e.X)
		}
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			s = fc.scanValue(s, idx)
		}
		return s
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if v := fc.trackedVar(s, elt); v != nil {
				s.vars[v] = stEscaped // stored; the structure owns it now
			} else {
				s = fc.scanValue(s, elt)
			}
		}
		return s
	case *ast.TypeAssertExpr:
		return fc.scanValue(s, e.X)
	case *ast.FuncLit:
		// Captured variables escape: the literal may run later, and its
		// body is analyzed as its own function.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := fc.pass.TypesInfo.Uses[id].(*types.Var); ok {
					if _, tracked := s.vars[v]; tracked {
						s.vars[v] = stEscaped
					}
				}
			}
			return true
		})
		return s
	default:
		return s
	}
}

// refine narrows states on branch conditions: the error paired with a
// packet binding being non-nil means the packet is nil (unborn); the
// packet itself compared against nil refines directly.
func (fc *fctx) refine(s state, cond ast.Expr, taken bool) state {
	switch cond := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			if taken {
				s = fc.refine(s, cond.X, true)
				s = fc.refine(s, cond.Y, true)
			}
			return s
		case token.LOR:
			if !taken {
				s = fc.refine(s, cond.X, false)
				s = fc.refine(s, cond.Y, false)
			}
			return s
		case token.NEQ, token.EQL:
			id := nilComparison(cond)
			if id == nil {
				return s
			}
			// isNonNil: does this branch outcome mean "id != nil"?
			isNonNil := (cond.Op == token.NEQ) == taken
			v, _ := fc.pass.TypesInfo.Uses[id].(*types.Var)
			if v == nil {
				return s
			}
			if p, ok := fc.pairs[v]; ok { // id is a paired error variable
				if b, tracked := s.vars[p]; tracked && b&stEscaped == 0 && b&stReleased == 0 {
					if isNonNil {
						s.vars[p] = stUnborn | (b & stDeferred)
					} else {
						s.vars[p] = stOwned | (b & stDeferred)
					}
				}
				return s
			}
			if b, tracked := s.vars[v]; tracked && b&stEscaped == 0 && b&stReleased == 0 {
				if isNonNil {
					s.vars[v] = stOwned | (b & stDeferred)
				} else {
					s.vars[v] = stUnborn | (b & stDeferred)
				}
			}
			return s
		}
	case *ast.UnaryExpr:
		if cond.Op == token.NOT {
			return fc.refine(s, cond.X, !taken)
		}
	}
	return s
}

// nilComparison matches `x == nil` / `x != nil` (either side) and
// returns the identifier, or nil.
func nilComparison(b *ast.BinaryExpr) *ast.Ident {
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNilIdent(y) {
		if id, ok := x.(*ast.Ident); ok {
			return id
		}
	}
	if isNilIdent(x) {
		if id, ok := y.(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// atReturn reports values that may still be owned when the function
// exits (ret == nil is the implicit return at the end of the body).
func (fc *fctx) atReturn(s state, ret *ast.ReturnStmt) {
	pos := fc.body.Rbrace
	if ret != nil {
		pos = ret.Pos()
		// Returning the value itself transfers ownership to the caller.
		for _, r := range ret.Results {
			if v := fc.trackedVar(s, r); v != nil {
				s.vars[v] = stEscaped
			}
		}
	}
	if fc.suppressed(pos) {
		return
	}
	var leaked []*types.Var
	for v, b := range s.vars {
		if b&stOwned != 0 && b&(stEscaped|stDeferred) == 0 {
			leaked = append(leaked, v)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
	for _, v := range leaked {
		fc.pass.Reportf(pos, "%s may still be owned on this return path (missing Release/Put)", fc.name(v))
	}
	stale := make([]string, 0, len(s.put))
	for f := range s.put {
		stale = append(stale, f)
	}
	sort.Strings(stale)
	for _, f := range stale {
		fc.pass.Reportf(pos, "%s still holds a buffer that was returned to the pool (clear the field where it is Put)", f)
	}
}

func (fc *fctx) suppressed(pos token.Pos) bool {
	return fc.pass.AnnotatedAt(pos, "owns-packet")
}

func (fc *fctx) name(v *types.Var) string {
	if n, ok := fc.names[v]; ok {
		return n
	}
	return v.Name()
}

// callName renders a producer call for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}
