package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism flags nondeterminism sources inside the packages that
// promise byte-identical reproducible output: wall-clock reads,
// package-global (unseeded) math/rand, and map iteration that feeds
// writers, encoders or key builders. The dse engine's NDJSON streams,
// store point keys and spec hashes — and the server's cache keys —
// must not depend on scheduling or map order.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag time.Now, global math/rand and ordered output from map iteration in reproducible-output packages",
	Run:  runDeterminism,
}

// deterministicFiles scopes the analyzer: package-path tail → the file
// basenames that promise reproducible output (nil means every file).
var deterministicFiles = map[string][]string{
	"dse":    nil,
	"tcdp":   nil,
	"core":   {"export.go"},
	"server": {"cache.go", "batch.go"},
}

// inDeterministicScope reports whether the file at pos is covered.
func inDeterministicScope(pkg *Package, pos token.Pos) bool {
	files, ok := deterministicFiles[pathTail(pkg.ImportPath)]
	if !ok {
		return false
	}
	if files == nil {
		return true
	}
	name := pathTail(pkg.Fset.Position(pos).Filename)
	for _, f := range files {
		if f == name {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if !inDeterministicScope(pass.Pkg, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkDeterministicFunc(pass, info, fd)
			return true
		})
	}
}

func checkDeterministicFunc(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	sorted := sortedObjects(info, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkClockAndRand(pass, info, n)
		case *ast.RangeStmt:
			checkMapRange(pass, info, n, sorted)
		}
		return true
	})
}

// checkClockAndRand flags time.Now and the package-global math/rand
// source. Methods on an explicitly seeded *rand.Rand are fine.
func checkClockAndRand(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	switch funcPkgPath(fn) {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in a reproducible-output package; inject the clock or timestamp outside the deterministic path")
		}
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() != nil {
			return // method on a seeded *rand.Rand
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(), "package-global math/rand (%s.%s) is unseeded and process-global; use a seeded *rand.Rand", pathTail(funcPkgPath(fn)), fn.Name())
	}
}

// checkMapRange flags `for … range m` over a map whose body emits
// ordered output: writes to a writer or encoder, appends to a slice
// declared outside the loop, or string concatenation onto an outer
// variable. The collect-then-sort idiom is exempt — if the appended-to
// slice is later passed to a sort call in the same function, iteration
// order washes out.
func checkMapRange(pass *Pass, info *types.Info, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	t := exprType(info, rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sinkName, ok := writeSink(info, n); ok {
				pass.Reportf(rng.Pos(), "map iteration order is random but the loop writes output via %s; collect and sort the keys first", sinkName)
				reported = true
			}
		case *ast.AssignStmt:
			if obj, kind := outerAccumulation(info, n, rng); obj != nil && !sorted[obj] {
				pass.Reportf(rng.Pos(), "map iteration order is random but the loop %s %q declared outside it; collect and sort the keys first", kind, obj.Name())
				reported = true
			}
		}
		return !reported
	})
}

// writeSink recognizes calls that emit ordered output: the fmt
// Fprint/Print family and any method named Write*, Encode* or
// String-building WriteString/WriteByte/WriteRune.
func writeSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if funcPkgPath(fn) == "fmt" {
		switch name {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return "fmt." + name, true
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode") {
			return name, true
		}
	}
	return "", false
}

// outerAccumulation reports the object accumulated into by assign when
// it is an append (x = append(x, …)) or string += targeting a
// variable declared outside the range statement. kind describes the
// accumulation for the message.
func outerAccumulation(info *types.Info, assign *ast.AssignStmt, rng *ast.RangeStmt) (types.Object, string) {
	if len(assign.Lhs) != 1 {
		return nil, ""
	}
	ident, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil, ""
	}
	obj := info.Uses[ident]
	if obj == nil {
		obj = info.Defs[ident]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return nil, ""
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil, "" // loop-local accumulation
	}
	switch assign.Tok {
	case token.ADD_ASSIGN:
		if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			return obj, "concatenates onto"
		}
	case token.ASSIGN:
		if len(assign.Rhs) != 1 {
			return nil, ""
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return nil, ""
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, shadowed := info.Uses[id].(*types.Func); !shadowed {
				return obj, "appends to"
			}
		}
	}
	return nil, ""
}

// sortedObjects collects the slice objects passed to a sort or slices
// package call anywhere in body — accumulating into these is ordered
// later, so map-range appends to them are deterministic in effect.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		switch funcPkgPath(fn) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}
