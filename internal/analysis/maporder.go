package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder guards the second ingredient of bit-identical simulation:
// no simulated outcome may depend on Go map iteration order or on
// nondeterministic inputs smuggled through call boundaries.
//
// Part one flags `range` over a map value in outcome-relevant packages
// unless the loop body is provably order-insensitive — set inserts
// with constant values, commutative accumulation (+=, counters),
// deletes, and the append-then-sort idiom (collect keys, sort, then
// iterate the slice; see core's sortedKeys). Anything else — merging
// into an ordered structure, emitting output, picking "the first"
// element — must iterate a sorted key slice instead.
//
// Part two generalizes simtime across call boundaries: a function
// anywhere in the module that (transitively) reaches time.Now-style
// wall-clock reads or the process-global math/rand source is tainted,
// the taint is exported as a function fact, and a call from a
// simulation package to a tainted helper outside the simulation is
// reported with the full witness chain to the offending call.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive map iteration and wall-clock/global-rand taint reaching simulated state",
	Run:  runMaporder,
}

// mapOrderPackages is where map iteration order can reach simulated
// outcome: the simPackages territory plus the packages that merge,
// persist, or report simulated state.
var mapOrderPackages = func() map[string]bool {
	m := map[string]bool{
		"envy":                    true,
		"envy/internal/host":      true,
		"envy/internal/stats":     true,
		"envy/internal/pagetable": true,
		"envy/internal/invariant": true,
	}
	for p := range simPackages {
		m[p] = true
	}
	return m
}()

// globalRandExempt lists math/rand package functions that do not touch
// the process-global source: constructors and explicit seeding.
func globalRandExempt(name string) bool {
	return strings.HasPrefix(name, "New") || name == "Seed"
}

// A taintSource is one wall-clock or global-rand call site.
type taintFact struct {
	Source string   `json:"source"` // e.g. "time.Now" or "math/rand.Intn"
	Site   string   `json:"site"`   // file:line of the call
	Path   []string `json:"path"`   // call chain from the function to the call, outermost first
}

type localTaint struct {
	taintFact
	pos token.Pos
}

func runMaporder(pass *Pass) error {
	if mapOrderPackages[pass.Pkg.Path()] {
		checkMapRanges(pass)
	}
	checkTaint(pass)
	return nil
}

// ---- part one: map iteration order ----

func checkMapRanges(pass *Pass) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if orderInsensitiveBody(pass, fd, rs.Body.List) {
					return true
				}
				pass.Reportf(rs.Pos(), "maporder: map iteration order can reach simulated outcome; iterate a sorted key slice instead (append keys, sort, then range the slice)")
				return true
			})
		}
	}
}

// orderInsensitiveBody reports whether every statement in a map-range
// body commutes across iterations: local declarations, constant set
// inserts, +=/-=/|=/&=/^= accumulation, increments, deletes, appends
// that are later sorted in the same function, early exits with
// constant results, and conditionals/blocks built from the same.
func orderInsensitiveBody(pass *Pass, fn *ast.FuncDecl, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, fn, s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, fn *ast.FuncDecl, s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.AssignStmt:
		switch s.Tok {
		case token.DEFINE:
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return true
		case token.ASSIGN:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else {
					rhs = s.Rhs[0]
				}
				if !orderInsensitiveAssign(pass, fn, lhs, rhs) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		// delete(m, k) removes independently of visit order.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if !orderInsensitiveStmt(pass, fn, s.Init) {
			return false
		}
		if !orderInsensitiveBody(pass, fn, s.Body.List) {
			return false
		}
		return orderInsensitiveStmt(pass, fn, s.Else)
	case *ast.BlockStmt:
		return orderInsensitiveBody(pass, fn, s.List)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			tv, ok := pass.TypesInfo.Types[r]
			if !ok || tv.Value == nil {
				// Not a constant: the returned value depends on which
				// iteration reached the return first.
				if id, isIdent := ast.Unparen(r).(*ast.Ident); !isIdent || (id.Name != "true" && id.Name != "false" && id.Name != "nil") {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	}
	return false
}

// orderInsensitiveAssign accepts constant set inserts (m[k] = true)
// and the collect-then-sort idiom (keys = append(keys, k) with a sort
// call over keys later in the function).
func orderInsensitiveAssign(pass *Pass, fn *ast.FuncDecl, lhs, rhs ast.Expr) bool {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				if target, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					return sortedLater(pass, fn, target)
				}
			}
		}
	}
	if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); !ok {
		return false
	}
	return constantExpr(pass, rhs)
}

// constantExpr reports whether e is a compile-time constant, a nil, or
// a composite literal of constants — a value identical no matter which
// iteration stores it.
func constantExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.TypesInfo.Types[e]; ok && (tv.Value != nil || tv.IsNil()) {
		return true
	}
	if cl, ok := e.(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if !constantExpr(pass, elt) {
				return false
			}
		}
		return true
	}
	return false
}

// sortFuncs are the sorting entry points that discharge an unordered
// key collection.
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"sort.Ints": true, "sort.Strings": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedLater reports whether the function contains a recognized sort
// call whose arguments mention the same variable as target.
func sortedLater(pass *Pass, fn *ast.FuncDecl, target *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[target]
	if obj == nil {
		obj = pass.TypesInfo.Defs[target]
	}
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok || !sortFuncs[pkgName.Imported().Path()+"."+sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// ---- part two: wall-clock / global-rand taint ----

func checkTaint(pass *Pass) {
	decls := declaredFuncs(pass)
	byObj := make(map[*types.Func]declFunc, len(decls))
	for _, d := range decls {
		byObj[d.obj] = d
	}

	memo := make(map[*types.Func]*localTaint)
	visiting := make(map[*types.Func]bool)
	var taintOf func(fn *types.Func) *localTaint
	taintOf = func(fn *types.Func) *localTaint {
		if got, ok := memo[fn]; ok {
			return got
		}
		if visiting[fn] {
			return nil
		}
		visiting[fn] = true
		defer delete(visiting, fn)

		d, ok := byObj[fn]
		if !ok {
			return nil
		}
		var result *localTaint
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			if result != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if src := directTaintSource(pass, call); src != "" {
				result = &localTaint{taintFact{Source: src, Site: site(pass.Fset, call.Pos())}, call.Pos()}
				return false
			}
			callee := staticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			step := displayName(pass.Pkg, callee)
			if callee.Pkg() == pass.Pkg {
				if t := taintOf(callee); t != nil {
					result = &localTaint{
						taintFact{Source: t.Source, Site: t.Site, Path: append([]string{step}, t.Path...)},
						call.Pos(),
					}
					return false
				}
				return true
			}
			if inModule(callee.Pkg()) {
				var fact taintFact
				if pass.ImportFunctionFact(callee, &fact) {
					result = &localTaint{
						taintFact{Source: fact.Source, Site: fact.Site, Path: append([]string{step}, fact.Path...)},
						call.Pos(),
					}
					return false
				}
			}
			return true
		})
		memo[fn] = result
		return result
	}

	for _, d := range decls {
		if pass.InTestFile(d.decl.Pos()) {
			continue
		}
		if t := taintOf(d.obj); t != nil {
			pass.ExportFunctionFact(d.obj, t.taintFact)
		}
	}

	if !simPackages[pass.Pkg.Path()] {
		return
	}
	// Inside the simulation, report the calls that leak taint in:
	// direct draws on the global rand source, and calls to tainted
	// module helpers declared outside the simulation (inside it, the
	// helper's own package already reports the leaf).
	reported := make(map[token.Pos]bool)
	for _, d := range decls {
		if pass.InTestFile(d.decl.Pos()) {
			continue
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call.Pos()] {
				return true
			}
			if src := directTaintSource(pass, call); strings.HasPrefix(src, "math/rand.") {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "maporder: %s draws from the process-global rand source; simulated components must use an explicitly seeded *rand.Rand", src)
				return true
			}
			callee := staticCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == pass.Pkg || !inModule(callee.Pkg()) || simPackages[callee.Pkg().Path()] {
				return true
			}
			var fact taintFact
			if !pass.ImportFunctionFact(callee, &fact) {
				return true
			}
			reported[call.Pos()] = true
			chain := append([]string{displayName(pass.Pkg, callee)}, fact.Path...)
			pass.Reportf(call.Pos(), "maporder: call reaches %s at %s via %s; simulated outcome must not depend on the wall clock or global rand",
				fact.Source, fact.Site, strings.Join(chain, " → "))
			return true
		})
	}
}

// directTaintSource reports the nondeterministic source a call reads
// directly: "time.<fn>" for wall-clock reads, "math/rand.<fn>" for
// draws on the global source. Empty otherwise.
func directTaintSource(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClock[sel.Sel.Name] {
			return "time." + sel.Sel.Name
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExempt(sel.Sel.Name) {
			return pkgName.Imported().Path() + "." + sel.Sel.Name
		}
	}
	return ""
}
