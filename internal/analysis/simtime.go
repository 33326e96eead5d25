package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Simtime forbids nondeterministic inputs inside the simulation: the
// eNVy model is deterministic, so every timestamp and delay must flow
// through sim.Time/sim.Duration (§5 of the paper simulates the
// hardware clock) and every random draw through a seeded sim.RNG. A
// time.Now() in the cleaner would silently couple results to host
// speed.
var Simtime = &Analyzer{
	Name: "simtime",
	Doc: "forbid the wall clock and math/rand in importable packages\n\n" +
		"Every importable package of the module — the root package envy\n" +
		"and everything under envy/internal/, test files included — must\n" +
		"be deterministic. Calls that read the host clock or block on\n" +
		"host timers (time.Now, time.Since, time.Sleep, timers, tickers)\n" +
		"are flagged, and so is any import of math/rand or math/rand/v2:\n" +
		"randomness comes from sim.RNG. Because simulation code can only\n" +
		"call importable packages and all of them are covered, no\n" +
		"cross-package analysis is needed. Declaring values of type\n" +
		"time.Duration remains fine — sim.Duration is defined in those\n" +
		"terms. Commands, examples and bench/ are main packages outside\n" +
		"the territory; they may time themselves.",
	Run: runSimtime,
}

// inSimTerritory reports whether a package can be imported by (or is)
// simulation code: the public package and everything under internal/,
// with their external test packages. Main packages — cmd/, examples/,
// bench/ — are the only ones outside.
func inSimTerritory(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "envy" || strings.HasPrefix(path, "envy/internal/")
}

// wallClock lists the time-package functions that read or wait on the
// host clock. Pure conversions and constructors (Unix, Date, Parse)
// are not banned: they do not observe the present.
var wallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runSimtime(pass *Pass) error {
	if !inSimTerritory(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "simtime: import of %s; simulated components draw randomness from a seeded sim.RNG", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if wallClock[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "simtime: time.%s reads the wall clock; simulated components must take time from sim.Time", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
