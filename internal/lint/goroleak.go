package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every goroutine in non-test code to be tied to a
// shutdown mechanism. The serving stack is built to be embedded — replicas
// Stopped, servers Shut down, registries Evicted — and an untied goroutine
// (a ticker loop, a forgotten worker) outlives the component that spawned
// it, holds its memory reachable, and keeps doing work against a torn-down
// engine. Every long-lived goroutine in the repo follows one of a small set
// of shapes (the replica's anti-entropy loop selecting on its stop channel
// and ctx.Done, FitParallel workers signalling a WaitGroup), and this
// analyzer pins that discipline.
//
// Mechanically, for each `go` statement the analyzer searches the spawned
// body — a function literal's body, or the declaration of a package-local
// function or method, expanded transitively through package-local calls —
// for shutdown evidence:
//
//   - a select statement (the idiomatic done-channel / ctx.Done() loop);
//   - a unary channel receive <-ch (blocking on a stop/done channel);
//   - ranging over a channel held in a variable or field (the sender closes
//     it to stop the loop). Ranging over a channel returned by a direct
//     call — `for range time.Tick(...)` — is NOT evidence: nobody holds
//     that channel, so nobody can ever stop the loop;
//   - a ctx.Done() or ctx.Err() call (cancellation-checked loops);
//   - a (*sync.WaitGroup).Done call (the goroutine signals a waiter that
//     holds its lifetime).
//
// Goroutines whose body the analyzer cannot see — external callees, calls
// through function values — are flagged: an invisible lifetime is reviewed
// and annotated, not assumed. Intentional process-lifetime goroutines
// (demo traffic generators) carry //lint:ignore goroleak <reason>.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "tie every goroutine to a shutdown mechanism (select, done channel, WaitGroup)",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	g := buildCallGraph(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, g, gs)
				}
				return true
			})
		}
	}
}

// checkGoStmt verifies one `go` statement against the shutdown-evidence
// rules.
func checkGoStmt(pass *Pass, g *callGraph, gs *ast.GoStmt) {
	info := pass.Pkg.Info
	var roots []types.Object
	switch fun := unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if hasShutdownEvidence(info, fun.Body) {
			return
		}
		roots = localCallees(pass.Pkg, fun.Body)
	default:
		callee := calleeFunc(info, gs.Call)
		if callee == nil {
			pass.Reportf(gs.Pos(), "goroutine spawned through a function value: the analyzer cannot see its body to verify a shutdown tie — spawn a named function or annotate //lint:ignore goroleak <reason>")
			return
		}
		if callee.Pkg() != pass.Pkg.Types {
			pass.Reportf(gs.Pos(), "goroutine spawns external %s.%s: the analyzer cannot see its body to verify a shutdown tie — wrap it in a local function with one, or annotate //lint:ignore goroleak <reason>", callee.Pkg().Name(), callee.Name())
			return
		}
		roots = []types.Object{callee}
	}
	for obj := range g.reachable(roots) {
		if d, ok := g.decls[obj]; ok && hasShutdownEvidence(info, d.Body) {
			return
		}
	}
	pass.Reportf(gs.Pos(), "goroutine has no shutdown tie: no select, done-channel receive, ctx.Done/Err check, or WaitGroup.Done is reachable from its body — tie it to its owner's lifetime or annotate //lint:ignore goroleak <reason>")
}

// localCallees collects the package-local functions and methods called
// (directly) anywhere under root.
func localCallees(pkg *Package, root ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeFunc(pkg.Info, call); callee != nil && callee.Pkg() == pkg.Types {
			out = append(out, callee)
		}
		return true
	})
	return out
}

// hasShutdownEvidence reports whether the body contains any of the
// shutdown-evidence shapes.
func hasShutdownEvidence(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if _, direct := unparen(v.X).(*ast.CallExpr); !direct {
						found = true
					}
				}
			}
		case *ast.CallExpr:
			if se, ok := unparen(v.Fun).(*ast.SelectorExpr); ok {
				recv := info.TypeOf(se.X)
				switch se.Sel.Name {
				case "Done":
					if isContextType(recv) || isNamedPath(recv, "sync", "WaitGroup") {
						found = true
					}
				case "Err":
					if isContextType(recv) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
