package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder guards the second ingredient of bit-identical simulation:
// no simulated outcome may depend on Go map iteration order.
//
// It flags `range` over a map value in the simulation territory (see
// inSimTerritory) unless the loop body is provably order-insensitive —
// set inserts with constant values, commutative accumulation (+=,
// counters), deletes, and the append-then-sort idiom (collect keys,
// sort, then iterate the slice; see core's sortedKeys). Anything else —
// merging into an ordered structure, emitting output, picking "the
// first" element — must iterate a sorted key slice instead.
//
// The other nondeterministic inputs — the wall clock and the
// process-global rand source — are simtime's: it bans them at the
// source in every importable package, so there is no call boundary
// left for them to be smuggled across.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive map iteration that can reach simulated state",
	Run:  runMaporder,
}

func runMaporder(pass *Pass) error {
	if !inSimTerritory(pass.Pkg.Path()) {
		return nil
	}
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
	return nil
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
