package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the request-path context contract: once a request enters
// the serving stack through a *Ctx entry point (Engine.PredictCtx,
// Engine.PredictBatchCtx, Registry.PredictCtx,
// Snapshot.PredictBatchParallelCtx, ...), its context.Context must travel
// with it — a deadline that silently stops propagating is a request that
// cannot be cancelled, which is how overloaded fleets serve doomed work to
// completion (docs/SERVING.md admission/backpressure design).
//
// Four rules, all applying to non-test code:
//
//   - background-in-ctx-path: a function that takes a context.Context must
//     not call context.Background or context.TODO anywhere in its body — the
//     request already carries a context. Boundaries that deliberately
//     detach (reghd-replica's gracefulShutdown, which drains the server
//     after the caller's context is already cancelled, and the ctx-less
//     convenience wrappers like Engine.Predict) take no context parameter,
//     which is exactly what exempts them.
//   - dropped-context: inside a function that takes a context, calling a
//     callee that has a context-accepting sibling (same name + "Ctx" suffix,
//     on the same receiver type for methods) without using that sibling
//     drops the deadline at a call boundary.
//   - unused-ctx: an exported function or method named *Ctx must actually
//     use its context parameter; a *Ctx name over an ignored context is a
//     cancellation guarantee the code does not provide.
//   - loop-cancellation: a loop in an exported *Ctx function must reference
//     the context (ctx.Err() check, ctx.Done() select, or passing ctx to
//     the per-item call) so long batches notice cancellation mid-flight,
//     not just at admission. Loops inside nested function literals are the
//     literal's business (they typically run under a worker-pool's own
//     cancellation, cf. forEachRowParallelCtx).
//
// Intentional violations carry //lint:ignore ctxflow <reason>.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require request-path functions to thread their context.Context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxObj := contextParam(pass.Pkg.Info, fn)
			if ctxObj == nil {
				continue
			}
			checkCtxBody(pass, fn)
			checkCtxSiblings(pass, fn)
			if fn.Name.IsExported() && len(fn.Name.Name) > 3 && fn.Name.Name[len(fn.Name.Name)-3:] == "Ctx" {
				if !declUsesObject(pass.Pkg.Info, fn.Body, ctxObj) {
					pass.Reportf(fn.Name.Pos(), "%s never uses its context parameter: a *Ctx entry point that ignores ctx cannot be cancelled — thread ctx or drop the suffix", fn.Name.Name)
				} else {
					checkCtxLoops(pass, fn, ctxObj)
				}
			}
		}
	}
}

// contextParam returns the object of fn's context.Context parameter, or nil.
// An unnamed (or blank) context parameter yields nil — the body cannot use
// it, so the unused-ctx rule reports through declUsesObject returning false
// only when a named parameter exists; blank contexts on *Ctx functions are
// instead caught because no named param means no rules fire, which is fine:
// such a function cannot thread anything.
func contextParam(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// checkCtxBody flags context.Background/context.TODO calls inside a function
// that already has a request context.
func checkCtxBody(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Pkg.Info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
			return true
		}
		if callee.Name() == "Background" || callee.Name() == "TODO" {
			pass.Reportf(call.Pos(), "context.%s inside %s, which already has a request context: thread the caller's ctx — detached batch boundaries belong in a function without a ctx parameter", callee.Name(), fn.Name.Name)
		}
		return true
	})
}

// checkCtxSiblings flags calls that drop the context at a call boundary: the
// callee takes no context, but a sibling named <callee>Ctx that does exists
// (same package for functions, same receiver type for methods).
func checkCtxSiblings(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		name := callee.Name()
		if len(name) > 3 && name[len(name)-3:] == "Ctx" {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || signatureTakesContext(sig) {
			return true
		}
		if sib := ctxSibling(callee); sib != nil {
			pass.Reportf(call.Pos(), "call to %s drops the request context: %s exists — thread ctx through it", name, sib.Name())
		}
		return true
	})
}

// ctxSibling finds a context-accepting function named callee's name + "Ctx":
// a method on the same receiver type, or a package-level function in the
// callee's package.
func ctxSibling(callee *types.Func) *types.Func {
	sig := callee.Type().(*types.Signature)
	want := callee.Name() + "Ctx"
	if recv := sig.Recv(); recv != nil {
		n := namedType(recv.Type())
		if n == nil {
			return nil
		}
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			if m.Name() == want && signatureTakesContext(m.Type().(*types.Signature)) {
				return m
			}
		}
		return nil
	}
	if obj, ok := callee.Pkg().Scope().Lookup(want).(*types.Func); ok {
		if signatureTakesContext(obj.Type().(*types.Signature)) {
			return obj
		}
	}
	return nil
}

// signatureTakesContext reports whether any parameter is a context.Context.
func signatureTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// checkCtxLoops flags loops in an exported *Ctx function that never
// reference the context. Loops inside nested function literals are skipped.
func checkCtxLoops(pass *Pass, fn *ast.FuncDecl, ctxObj types.Object) {
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		var pos = n.Pos()
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.FuncLit); ok {
				return
			}
			switch anc.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				// The enclosing loop is already checked; reporting every
				// nesting level would stutter.
				return
			}
		}
		if !declUsesObject(pass.Pkg.Info, n, ctxObj) {
			pass.Reportf(pos, "loop in exported %s never checks its context: a cancelled request runs to completion — check ctx.Err() (or pass ctx) each iteration", fn.Name.Name)
		}
	})
}

// declUsesObject reports whether any identifier under root resolves to obj.
func declUsesObject(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
