package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces request-path cancellability in the serving code:
// work done on behalf of a request (or any function handed a context)
// must stop when that context does. Blocking channel operations and selects must carry a ctx.Done() escape, time.Sleep
// has no business on a cancellable path, outbound HTTP must use a
// ctx-aware constructor, context.Background()/TODO() may only mint
// lifetime roots inside constructors, and a context stored in a struct
// field — the classic way a request context outlives its request — is
// flagged wherever it appears.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "request-scoped code in server must be cancellable via ctx.Done()",
	Run:  runCtxFlow,
}

// ctxflowPackages scopes the analyzer by import-path tail: the
// serving layer, where every blocking operation sits on a request or
// drain path.
var ctxflowPackages = map[string]bool{
	"server": true,
}

func runCtxFlow(pass *Pass) {
	if !ctxflowPackages[pathTail(pass.Pkg.ImportPath)] {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				ctxStructFields(pass, d)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				// context.Background()/TODO() are checked in every
				// function of the scoped packages — a background context
				// deep in a helper is exactly how gossip and forwarding
				// escape cancellation — except in constructors
				// (New*/Start*/Open*/main), which legitimately mint the
				// process- or component-lifetime root.
				if !isLifetimeRootFunc(d.Name.Name) {
					checkBackgroundCtx(pass, info, d.Body)
				}
				if hasCtxOrRequestParam(info, d) {
					checkCancellableBody(pass, info, d.Body)
				}
			}
		}
	}
}

// isLifetimeRootFunc reports whether name identifies a constructor
// allowed to call context.Background(): the place lifetime roots are
// minted.
func isLifetimeRootFunc(name string) bool {
	return name == "main" ||
		strings.HasPrefix(name, "New") ||
		strings.HasPrefix(name, "Start") ||
		strings.HasPrefix(name, "Open")
}

// ctxStructFields flags context.Context stored in struct fields.
// Contexts are call-scoped values; a field keeps one alive past its
// caller and silently decouples the work from the cancellation that
// was supposed to bound it. Deliberate lifetime roots (a server's base
// context) carry a reasoned //ppatcvet:ignore.
func ctxStructFields(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if !isContextType(exprType(pass.Pkg.Info, field.Type)) {
				continue
			}
			name := "embedded"
			if len(field.Names) > 0 {
				name = field.Names[0].Name
			}
			pass.Reportf(field.Pos(),
				"context.Context stored in struct field %s.%s; pass contexts through call paths instead",
				ts.Name.Name, name)
		}
	}
}

// hasCtxOrRequestParam reports whether fn is request-scoped: it takes
// a context.Context or an *http.Request, so everything it does happens
// on behalf of a cancellable caller.
func hasCtxOrRequestParam(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, p := range fn.Type.Params.List {
		t := exprType(info, p.Type)
		if isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Request" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// checkBackgroundCtx flags context.Background() and context.TODO()
// calls in body.
func checkBackgroundCtx(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if funcPkgPath(fn) != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s() outside a constructor; derive from the caller's or the component's lifetime context",
				fn.Name())
		}
		return true
	})
}

// checkCancellableBody walks a request-scoped function body and flags
// blocking constructs that cannot be interrupted by context
// cancellation: bare channel sends/receives, range-over-channel,
// selects with neither a default nor a <-Done() case, time.Sleep, and
// non-context HTTP constructors.
func checkCancellableBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// inSelect marks the channel operations that appear as select
	// communication clauses — judged via their select, not on their own.
	inSelect := map[ast.Node]bool{}
	// inDefer marks deferred function literals: cleanup paths (releasing
	// a semaphore slot you hold, closing what you opened) run after the
	// work and don't block a live request.
	var deferred []ast.Node

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				inSelect[cc.Comm] = true
				if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					inSelect[ast.Unparen(as.Rhs[0])] = true
				}
				if es, ok := cc.Comm.(*ast.ExprStmt); ok {
					inSelect[ast.Unparen(es.X)] = true
				}
			}
		case *ast.DeferStmt:
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				deferred = append(deferred, lit)
			}
		}
		return true
	})
	inDeferred := func(n ast.Node) bool {
		for _, d := range deferred {
			if d.Pos() <= n.Pos() && n.End() <= d.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			if !inSelect[s] && !inDeferred(s) {
				pass.Reportf(s.Pos(),
					"blocking channel send outside a select with a ctx.Done() case; a cancelled request would block here")
			}
		case *ast.UnaryExpr:
			if s.Op.String() != "<-" {
				return true
			}
			if !inSelect[s] && !inDeferred(s) {
				pass.Reportf(s.Pos(),
					"blocking channel receive outside a select with a ctx.Done() case; a cancelled request would block here")
			}
		case *ast.RangeStmt:
			if t := exprType(info, s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.Reportf(s.Pos(),
						"range over a channel blocks until it closes; use a select with a ctx.Done() case")
				}
			}
		case *ast.SelectStmt:
			if !selectIsCancellable(info, s) && !inDeferred(s) {
				pass.Reportf(s.Pos(),
					"select has neither a default nor a ctx.Done() case; a cancelled request would block here")
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, info, s)
		}
		return true
	})
}

// selectIsCancellable reports whether sel can always make progress
// under cancellation: it has a default clause (non-blocking) or one of
// its cases receives from a Done() channel.
func selectIsCancellable(info *types.Info, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default clause
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op.String() != "<-" {
			continue
		}
		if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				return true
			}
		}
	}
	return false
}

// checkBlockingCall flags time.Sleep and the context-free outbound
// HTTP constructors inside request-scoped functions.
func checkBlockingCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		if fn.Name() == "Sleep" {
			pass.Reportf(call.Pos(),
				"time.Sleep in a request-scoped function ignores cancellation; select on ctx.Done() and a timer instead")
		}
	case "net/http":
		// Package-level functions only: Header.Get and friends are
		// methods in the same package and are not outbound HTTP.
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return
		}
		switch fn.Name() {
		case "Get", "Post", "PostForm", "Head":
			pass.Reportf(call.Pos(),
				"http.%s has no context; build the request with http.NewRequestWithContext", fn.Name())
		case "NewRequest":
			pass.Reportf(call.Pos(),
				"http.NewRequest drops the caller's context; use http.NewRequestWithContext")
		}
	}
}
