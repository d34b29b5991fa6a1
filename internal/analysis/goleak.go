package analysis

import (
	"go/ast"
	"go/types"
)

// GoLeak flags fire-and-forget goroutines in the server and store
// layers: a `go` statement whose body (followed transitively through
// same-package callees) touches no context, no channel, and no
// WaitGroup has no way to learn the component is draining — it runs
// until the process dies, holding whatever it captured. Every goroutine
// in those layers must be tied to a lifetime: a ctx.Done(), a stop/done
// channel, or a WaitGroup the closer waits on.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines in server/store need a ctx, stop channel, or WaitGroup",
	Run:  runGoLeak,
}

// goLeakPackages scopes the analyzer by import-path tail to the
// long-running components with an explicit drain sequence.
var goLeakPackages = map[string]bool{
	"server": true,
	"store":  true,
}

func runGoLeak(pass *Pass) {
	if !goLeakPackages[pathTail(pass.Pkg.ImportPath)] {
		return
	}
	info := pass.Pkg.Info

	// Index the package's function declarations so `go s.method()` can
	// be judged by the method's body, not just the call site.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineHasStopHook(info, decls, gs) {
				pass.Reportf(gs.Pos(),
					"fire-and-forget goroutine: no context, channel, or WaitGroup in its body; it cannot observe drain")
			}
			return true
		})
	}
}

// goroutineHasStopHook reports whether the goroutine launched by gs
// can observe shutdown. The goroutine's arguments and its body — the
// function literal's, or the resolved same-package declaration's,
// followed transitively through same-package calls — are searched for
// any context.Context value, any channel-typed expression, or any
// sync.WaitGroup use.
func goroutineHasStopHook(info *types.Info, decls map[*types.Func]*ast.FuncDecl, gs *ast.GoStmt) bool {
	// Arguments evaluated at spawn: a ctx or channel handed in counts.
	for _, arg := range gs.Call.Args {
		if t := exprType(info, arg); t != nil && isStopHookType(t) {
			return true
		}
	}
	visited := map[ast.Node]bool{}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyHasStopHook(info, decls, fun.Body, visited)
	default:
		if fn := calleeFunc(info, gs.Call); fn != nil {
			if fd, ok := decls[fn]; ok {
				return bodyHasStopHook(info, decls, fd.Body, visited)
			}
		}
	}
	// An unresolvable target (cross-package call, method value) is
	// given the benefit of the doubt — flagging what we cannot see
	// would punish every stdlib helper.
	return true
}

// isStopHookType reports whether t can carry a shutdown signal: a
// context, a channel, or a WaitGroup.
func isStopHookType(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
	}
	return false
}

// bodyHasStopHook searches one function body — and, transitively, the
// bodies of same-package functions it calls — for a stop hook.
func bodyHasStopHook(info *types.Info, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, visited map[ast.Node]bool) bool {
	if body == nil || visited[body] {
		return false
	}
	visited[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if v, ok := obj.(*types.Var); ok && isStopHookType(v.Type()) {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if t := exprType(info, e); t != nil && isStopHookType(t) {
				found = true
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil {
				return true
			}
			// Done()/Err() on a context, or any WaitGroup method,
			// counts directly; same-package callees are followed.
			if fd, ok := decls[fn]; ok {
				if bodyHasStopHook(info, decls, fd.Body, visited) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
