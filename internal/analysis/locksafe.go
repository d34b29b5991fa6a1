package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe checks mutex discipline in the concurrent service code:
// no blocking operation while a lock is held, no copying of
// lock-bearing values, no early return between an explicit Lock and
// its Unlock, no mixing sync/atomic with plain access on one field,
// and WaitGroup.Add on the spawning side of a goroutine, never inside
// it (Add inside the goroutine races Wait).
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "mutex held across blocking ops, lock copies, early returns, atomic/plain mixing",
	Run:  runLockSafe,
}

// lockSafePackages scopes the analyzer by import-path tail to the
// layers built on shared mutable state.
var lockSafePackages = map[string]bool{
	"server": true,
	"store":  true,
	"flight": true,
	"obs":    true,
}

func runLockSafe(pass *Pass) {
	if !lockSafePackages[pathTail(pass.Pkg.ImportPath)] {
		return
	}
	info := pass.Pkg.Info
	atomicFields := map[types.Object]token.Pos{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockRegions(pass, info, fd)
			checkLockCopies(pass, info, fd)
			checkWaitGroupAddInGoroutine(pass, info, fd.Body)
			collectAtomicFields(info, fd.Body, atomicFields)
		}
	}
	if len(atomicFields) > 0 {
		for _, f := range pass.Pkg.Files {
			checkPlainAccessToAtomicFields(pass, info, f, atomicFields)
		}
	}
}

// lockRegion is one positional Lock→Unlock span: from the Lock call to
// the first matching Unlock on the same receiver text (or the function
// end when the unlock is deferred). Positional regions over-approximate
// branches modestly, which is the right bias for a gate: the code that
// confuses the approximation also confuses the reader.
type lockRegion struct {
	recv     string
	lockPos  token.Pos
	start    token.Pos
	end      token.Pos
	deferred bool
}

// checkLockRegions finds every sync.Mutex/RWMutex Lock in fn, pairs it
// with its unlock, and scans the held span for blocking operations and
// early returns.
func checkLockRegions(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	type lockCall struct {
		recv string
		call *ast.CallExpr
		name string // Lock, RLock, Unlock, RUnlock
		dfr  bool
	}
	var calls []lockCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		// Lock state inside a nested function literal is its own story —
		// it runs on its own goroutine or at defer time, not under the
		// enclosing function's locks.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := syncLockMethod(info, call)
		if ok {
			calls = append(calls, lockCall{recv: recv, call: call, name: name})
		}
		return true
	})
	// Deferred unlocks extend their region to the function end.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for i := range calls {
			if calls[i].call == ds.Call {
				calls[i].dfr = true
			}
		}
		return true
	})

	var regions []lockRegion
	for i, c := range calls {
		if c.name != "Lock" && c.name != "RLock" {
			continue
		}
		unlock := "Unlock"
		if c.name == "RLock" {
			unlock = "RUnlock"
		}
		region := lockRegion{recv: c.recv, lockPos: c.call.Pos(), start: c.call.End(), end: fn.Body.End()}
		found := false
		for _, u := range calls[i+1:] {
			if u.recv != c.recv || u.name != unlock {
				continue
			}
			found = true
			if u.dfr {
				region.deferred = true
			} else {
				region.end = u.call.Pos()
			}
			break
		}
		if !found {
			// Look for a defer registered before the Lock (the common
			// `mu.Lock(); defer mu.Unlock()` order is also covered above
			// since defers appear after; this catches defer-then-lock).
			for _, u := range calls[:i] {
				if u.recv == c.recv && u.name == unlock && u.dfr {
					found, region.deferred = true, true
					break
				}
			}
		}
		if !found {
			pass.Reportf(c.call.Pos(), "%s.%s() with no matching %s in this function", c.recv, c.name, unlock)
			continue
		}
		regions = append(regions, region)
	}
	for _, r := range regions {
		scanHeldRegion(pass, info, fn, r)
	}
}

// syncLockMethod matches a call to a sync.Mutex/RWMutex lock method and
// returns the receiver expression's source text plus the method name.
func syncLockMethod(info *types.Info, call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn := calleeFunc(info, call)
	if funcPkgPath(fn) != "sync" {
		return "", "", false
	}
	return exprText(sel.X), sel.Sel.Name, true
}

// exprText renders a selector/ident chain ("s.mu", "co.mu") for
// receiver matching; other shapes get a stable placeholder.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	}
	return "?"
}

// scanHeldRegion flags blocking operations and (for explicit unlocks)
// early returns positioned inside a held region.
func scanHeldRegion(pass *Pass, info *types.Info, fn *ast.FuncDecl, r lockRegion) {
	in := func(n ast.Node) bool { return r.start <= n.Pos() && n.Pos() < r.end }
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // runs outside the lock's dynamic extent
		}
		if n == nil || !in(n) {
			return true
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			if !sendInNonBlockingSelect(fn.Body, s) {
				pass.Reportf(s.Pos(), "channel send while holding %s; a blocked receiver stalls every other locker", r.recv)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				pass.Reportf(s.Pos(), "blocking select while holding %s; every other locker stalls until a case fires", r.recv)
			}
			return false // cases already judged via the select itself
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				pass.Reportf(s.Pos(), "channel receive while holding %s; a quiet sender stalls every other locker", r.recv)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, s); fn != nil {
				switch {
				case funcPkgPath(fn) == "time" && fn.Name() == "Sleep":
					pass.Reportf(s.Pos(), "time.Sleep while holding %s", r.recv)
				case funcPkgPath(fn) == "sync" && fn.Name() == "Wait" && !isCondWait(info, s):
					pass.Reportf(s.Pos(), "WaitGroup.Wait while holding %s; the waited goroutines may need the same lock", r.recv)
				case isOutboundHTTP(fn):
					pass.Reportf(s.Pos(), "outbound HTTP while holding %s; a slow peer stalls every other locker", r.recv)
				}
			}
		case *ast.ReturnStmt:
			if !r.deferred {
				pass.Reportf(s.Pos(), "return while %s is held with no deferred unlock; this path leaks the lock", r.recv)
			}
		}
		return true
	})
}

// sendInNonBlockingSelect reports whether send appears as a comm
// clause of a select that has a default (the publish-or-drop idiom).
func sendInNonBlockingSelect(body *ast.BlockStmt, send *ast.SendStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectStmt)
		if !isSel || !selectHasDefault(sel) {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, isCC := clause.(*ast.CommClause); isCC && cc.Comm == send {
				ok = true
			}
		}
		return true
	})
	return ok
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isOutboundHTTP reports whether fn performs an HTTP round trip: a
// net/http package-level request function, or a Do/Get/Post/PostForm/
// Head method on http.Client. Header.Get and the other same-package
// accessor methods do not count.
func isOutboundHTTP(fn *types.Func) bool {
	if funcPkgPath(fn) != "net/http" {
		return false
	}
	switch fn.Name() {
	case "Get", "Post", "PostForm", "Head", "Do":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	recv := sig.Recv()
	if recv == nil {
		return true // package-level http.Get and friends
	}
	t := recv.Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj() != nil && named.Obj().Name() == "Client"
}

// isCondWait reports whether call is sync.Cond.Wait — which releases
// the lock while waiting and is exempt by design.
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := exprType(info, sel.X)
	if t == nil {
		return false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == "Cond" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// containsLock reports whether t (not a pointer to it) transitively
// contains a sync lock type, so copying a value of t copies lock state.
func containsLock(t types.Type) bool {
	return containsLockDepth(t, 0)
}

func containsLockDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
				return true
			}
		}
		return containsLockDepth(named.Underlying(), depth+1)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsLockDepth(u.Elem(), depth+1)
	}
	return false
}

// checkLockCopies flags value receivers, value parameters, plain-value
// assignments, and range value variables whose type carries a lock.
func checkLockCopies(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	flagField := func(f *ast.Field, kind string) {
		t := exprType(info, f.Type)
		if t == nil || !containsLock(t) {
			return
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			return
		}
		pass.Reportf(f.Pos(), "%s copies a lock-bearing %s value; use a pointer", kind, types.TypeString(t, nil))
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			flagField(f, "value receiver")
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			flagField(f, "parameter")
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if lockCopyExpr(info, rhs) {
					pass.Reportf(rhs.Pos(), "assignment copies a lock-bearing value; use a pointer")
				}
			}
		case *ast.RangeStmt:
			if s.Value == nil {
				return true
			}
			// A `:=` range defines its value variable, so the ident lives
			// in Defs rather than Types; a `=` range reuses one, in Types.
			t := exprType(info, s.Value)
			if id, ok := s.Value.(*ast.Ident); ok && t == nil {
				if obj := info.Defs[id]; obj != nil {
					t = obj.Type()
				}
			}
			if t != nil && containsLock(t) {
				pass.Reportf(s.Value.Pos(), "range copies lock-bearing %s values; iterate by index or store pointers", types.TypeString(t, nil))
			}
		}
		return true
	})
}

// lockCopyExpr reports whether e reads an existing lock-bearing value
// (as opposed to constructing a fresh zero/composite one).
func lockCopyExpr(info *types.Info, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return false
	}
	t := exprType(info, e)
	return t != nil && containsLock(t)
}

// checkWaitGroupAddInGoroutine flags WaitGroup.Add calls inside the
// body of a spawned goroutine: the spawner may reach Wait before the
// goroutine is scheduled, so Add must happen on the spawning side.
func checkWaitGroupAddInGoroutine(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			if fn := calleeFunc(info, call); funcPkgPath(fn) == "sync" && isWaitGroupRecv(info, sel.X) {
				pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait; call Add before the go statement")
			}
			return true
		})
		return true
	})
}

func isWaitGroupRecv(info *types.Info, e ast.Expr) bool {
	t := exprType(info, e)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == "WaitGroup" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// collectAtomicFields records struct fields whose address is passed to
// a sync/atomic function.
func collectAtomicFields(info *types.Info, body *ast.BlockStmt, out map[types.Object]token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); funcPkgPath(fn) != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				continue
			}
			if obj := fieldObject(info, ue.X); obj != nil {
				out[obj] = call.Pos()
			}
		}
		return true
	})
}

// fieldObject resolves a selector expression to the struct field it
// names, or nil.
func fieldObject(info *types.Info, e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// checkPlainAccessToAtomicFields flags non-atomic writes to fields the
// package elsewhere accesses through sync/atomic: mixing the two
// publishes torn state to the atomic readers.
func checkPlainAccessToAtomicFields(pass *Pass, info *types.Info, f *ast.File, fields map[types.Object]token.Pos) {
	flag := func(e ast.Expr) {
		if obj := fieldObject(info, e); obj != nil {
			if _, ok := fields[obj]; ok {
				pass.Reportf(e.Pos(), "plain write to field %s, which is accessed with sync/atomic elsewhere; use the atomic API for every access", obj.Name())
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(s.X)
		}
		return true
	})
}
