// Package simdeterminism implements the smarth-vet analyzer guarding
// the determinism discipline that keeps internal/conformance decision
// logs byte-identical across substrates (DESIGN.md §9): inside the
// deterministic packages — sim, des, writesched, netsim, policy,
// conformance — the only time source is internal/clock and the only
// randomness is an explicitly seeded *rand.Rand. The analyzer reports,
// in those packages:
//
//   - any call to time.Now, time.Since, time.Until, time.Sleep,
//     time.After, time.AfterFunc, time.Tick, time.NewTimer, or
//     time.NewTicker (time.Duration values and arithmetic remain
//     fine — only the wall/monotonic clock and timers are banned);
//   - any call to a math/rand package-level function (rand.Intn,
//     rand.Shuffle, rand.Seed, ...), which draw from the shared
//     global source; constructing a seeded generator with rand.New /
//     rand.NewSource / rand.NewZipf is the sanctioned pattern;
//   - a `for range` over a map whose body feeds an order-sensitive
//     sink — a method call whose name contains log, emit, record, or
//     event, or a channel send — since map iteration order would leak
//     into the decision log or emitted events. Collecting keys into a
//     slice and sorting stays silent; a loop whose order is provably
//     immaterial can carry a `//smarth:deterministic` annotation;
//   - any assignment or ++/-- whose target is (or reaches into) a
//     package-level variable, outside init, and any mention of
//     sync.Pool: simulations run side by side on worker goroutines
//     (sim.RunAll), which is safe — and leaves each result a function
//     of its config alone — only while a run can reach nothing but
//     what it was handed. A package-level var with an initialiser
//     (`var ErrX = errors.New(...)`, a lookup table) is a declaration,
//     not a write, and stays silent.
//
// The deterministic package set is matched by package name, so
// analysistest fixtures named after a real package are checked
// identically. _test.go files are never loaded (analysis.Load reads a
// package's GoFiles only): the discipline governs the engine and
// harness code, not the real-time watchdogs tests wrap around them.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the simdeterminism analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, global math/rand, and map-iteration-" +
		"ordered event emission inside the deterministic simulation " +
		"packages (internal/clock is the only time source)",
	Run: run,
}

// deterministicPkgs names the packages held to the determinism
// discipline (matched by package name; see the package doc).
var deterministicPkgs = map[string]bool{
	"sim":         true,
	"des":         true,
	"writesched":  true,
	"netsim":      true,
	"conformance": true,
	// Write policies make placement and ordering decisions that land in
	// the conformance-pinned decision log, so they are held to the same
	// discipline: rng only through the PlaceInput/OrderPipeline
	// parameters, no wall clock, no map-order-dependent decisions.
	"policy": true,
}

// bannedTimeFuncs are the package time functions that read the wall
// clock or start timers.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRandFuncs construct explicitly seeded generators and are the
// sanctioned way to use math/rand deterministically.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) error {
	if !deterministicPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// init runs once, before any simulation, and may fill tables.
			fd, _ := decl.(*ast.FuncDecl)
			inInit := fd != nil && fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n)
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if !inInit {
							checkSharedWrite(pass, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !inInit {
						checkSharedWrite(pass, n.X)
					}
				case *ast.Ident:
					checkSyncPool(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkSharedWrite flags a store whose target is a package-level
// variable or something reached through one (a field, an element, a
// pointee).
func checkSharedWrite(pass *analysis.Pass, target ast.Expr) {
	for {
		switch e := target.(type) {
		case *ast.ParenExpr:
			target = e.X
		case *ast.IndexExpr:
			target = e.X
		case *ast.StarExpr:
			target = e.X
		case *ast.SelectorExpr:
			if _, qualified := pass.TypesInfo.Uses[e.Sel].(*types.Var); qualified && pass.TypesInfo.Selections[e] == nil {
				target = e.Sel // otherpkg.Var
			} else {
				target = e.X
			}
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				pass.Reportf(e.Pos(), "write to package-level variable %s in a deterministic package: concurrent runs would share it (pass state down by parameter)", v.Name())
			}
			return
		default:
			return
		}
	}
}

// checkSyncPool flags any mention of the sync.Pool type: what a Get
// returns depends on what other goroutines Put and on the collector.
func checkSyncPool(pass *analysis.Pass, id *ast.Ident) {
	if tn, ok := pass.TypesInfo.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
		pass.Reportf(id.Pos(), "sync.Pool in a deterministic package: scratch memory is owned by the goroutine that runs the simulation and handed down by parameter")
	}
}

// checkCall flags banned time and global math/rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: internal/clock is the only time source (DESIGN.md §9)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s draws from the global source in a deterministic package: use an explicitly seeded *rand.Rand", fn.Name())
		}
	}
}

// checkMapRange flags map iterations whose body feeds an
// order-sensitive sink.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.AnnotatedAt(rng.Pos(), "deterministic") {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(rng.Pos(), "map iteration order reaches a channel send; emitted order would be nondeterministic (sort keys first, or annotate //smarth:deterministic)")
			return false
		case *ast.CallExpr:
			if name, sink := sinkCall(pass, n); sink {
				pass.Reportf(rng.Pos(), "map iteration order feeds %s; the decision log/event order would be nondeterministic (sort keys first, or annotate //smarth:deterministic)", name)
				return false
			}
		}
		return true
	})
}

// sinkCall reports whether a call inside a map-range body is an
// order-sensitive sink: a method whose name suggests logging or event
// emission. The builtin append and plain functions are not sinks — the
// collect-then-sort idiom stays clean.
func sinkCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return "", false
	}
	lower := strings.ToLower(fn.Name())
	for _, marker := range []string{"log", "emit", "record", "event"} {
		if strings.Contains(lower, marker) {
			return fn.Name(), true
		}
	}
	return "", false
}
