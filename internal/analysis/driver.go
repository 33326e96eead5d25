package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// CheckModule is the one driver: it shells out to
// `go list -deps -export -test -json` for the package list and the
// compiler's export data, parses and type-checks every module package
// (including test variants) from source, and runs the full analyzer
// suite over each. Every analyzer is package-local, so the order is
// immaterial. After the suite runs over a package, suppression
// directives that silenced nothing are reported as findings too.
//
// Findings come back as "file:line:col: message" strings, in package
// order and position order within a package, deduplicated (a package
// with in-package tests is analyzed twice — plain and test-augmented —
// and its non-test files would otherwise report everything twice).
// The error is non-nil only when loading, parsing, or type-checking
// failed; analyzer findings alone never produce an error.
func CheckModule(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}

	exports := make(map[string]string)
	var units []*modulePackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		p := new(modulePackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case p.Standard, p.Module == nil, len(p.GoFiles) == 0:
			continue // outside the module, or nothing to analyze
		case strings.HasSuffix(p.ImportPath, ".test"):
			continue // generated test main
		}
		units = append(units, p)
	}

	fset := token.NewFileSet()
	var findings []string
	seen := make(map[string]bool)
	var loadErrs []string
	for _, p := range units {
		var files []*ast.File
		parseFailed := false
		for _, name := range p.GoFiles {
			if !filepath.IsAbs(name) {
				name = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				loadErrs = append(loadErrs, err.Error())
				parseFailed = true
				break
			}
			files = append(files, f)
		}
		if parseFailed {
			continue
		}
		// A fresh importer per package: test-variant import maps can
		// bind the same path to different export data, so the
		// importer's internal cache must not leak across packages.
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if canonical, ok := p.ImportMap[path]; ok {
				path = canonical
			}
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		})
		conf := types.Config{Importer: imp}
		info := NewTypesInfo()
		pkg, err := conf.Check(scrubImportPath(p.ImportPath), fset, files, info)
		if err != nil {
			loadErrs = append(loadErrs, fmt.Sprintf("type-checking %s: %v", p.ImportPath, err))
			continue
		}
		unit := &Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		for _, line := range checkPackage(unit) {
			if !seen[line] {
				seen[line] = true
				findings = append(findings, line)
			}
		}
	}
	if len(loadErrs) > 0 {
		return findings, fmt.Errorf("%s", strings.Join(loadErrs, "\n"))
	}
	return findings, nil
}

// checkPackage runs the full suite plus the stale-suppression check
// over one type-checked package and returns formatted findings.
func checkPackage(unit *Package) []string {
	audit := NewSuppressionAudit()
	var diags []Diagnostic
	for _, a := range All() {
		if err := RunPackage(a, unit, audit, func(d Diagnostic) {
			diags = append(diags, d)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "envyvet: %s on %s: %v\n", a.Name, unit.Pkg.Path(), err)
		}
	}
	diags = append(diags, StaleSuppressions(unit.Fset, unit.Files, audit)...)
	SortDiagnostics(unit.Fset, diags)
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s", unit.Fset.Position(d.Pos), d.Message)
	}
	return out
}

// NewTypesInfo allocates the type-checker result maps the analyzers
// need.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// scrubImportPath removes the " [pkg.test]" disambiguator go appends
// to test-variant import paths, so analyzers see the declared path.
func scrubImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// modulePackage is the subset of `go list -json` output the module
// driver consumes.
type modulePackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}
