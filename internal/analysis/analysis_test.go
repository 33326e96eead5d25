package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"envy/internal/analysis"
)

// The fixture harness mirrors x/tools' analysistest: each package
// under testdata/src is parsed and type-checked with its import path,
// the analyzer runs over it, and every diagnostic must line up with a
// `// want `+"`regex`"+` comment on the same line (and vice versa).

// fixtureImporter resolves imports among the testdata packages, so
// fixtures never touch real standard-library export data.
type fixtureImporter struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[path]; ok {
		return pkg, nil
	}
	files, err := parseFixture(imp.fset, path)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	imp.pkgs[path] = pkg
	return pkg, nil
}

// parseFixture parses every .go file of the fixture package at the
// given import path.
func parseFixture(fset *token.FileSet, path string) ([]*ast.File, error) {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %s has no Go files", path)
	}
	return files, nil
}

// want is one expectation: a diagnostic matching re on the given line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// collectWants extracts the `// want` comments relevant to one
// analyzer from fixture files. Fixtures are shared between analyzers
// (the panics fixture doubles as a simtime negative), so every want
// pattern starts with the name of the analyzer it belongs to.
func collectWants(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil || !strings.HasPrefix(m[1], a.Name) {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture checks one analyzer against one fixture package.
func runFixture(t *testing.T, a *analysis.Analyzer, path string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseFixture(fset, path)
	if err != nil {
		t.Fatal(err)
	}
	imp := &fixtureImporter{fset: fset, pkgs: make(map[string]*types.Package)}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", path, err)
	}

	var got []analysis.Diagnostic
	unit := &analysis.Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := analysis.RunPackage(a, unit, nil, func(d analysis.Diagnostic) {
		got = append(got, d)
	}); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, path, err)
	}
	analysis.SortDiagnostics(fset, got)
	matchWants(t, a, fset, files, got)
}

// matchWants lines the diagnostics up against the files' want comments.
func matchWants(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, got []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, a, fset, files)
	for _, d := range got {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestSimtime(t *testing.T) {
	runFixture(t, analysis.Simtime, "envy/internal/core")      // violations + suppression
	runFixture(t, analysis.Simtime, "envy/internal/stats")     // any internal package is territory: wall clock + math/rand import
	runFixture(t, analysis.Simtime, "envy/internal/pagetable") // wall clock in the mapping layer
	runFixture(t, analysis.Simtime, "envy/examples/clock")     // outside the importable packages: clean
	runFixture(t, analysis.Simtime, "envy/internal/panics")    // no time use at all: clean
}

func TestFlashstate(t *testing.T) {
	runFixture(t, analysis.Flashstate, "envy/examples/rogue")     // violations (Table + DiffDirectory) + cache/read/suppression negatives
	runFixture(t, analysis.Flashstate, "envy/internal/flash")     // owner mutating its own state: clean
	runFixture(t, analysis.Flashstate, "envy/internal/switcher")  // reads only: clean
	runFixture(t, analysis.Flashstate, "envy/internal/pagetable") // owner of Table and DiffDirectory: clean
	runFixture(t, analysis.Flashstate, "envy/internal/sram")      // owner of the buffer's flush transitions: clean
}

func TestPanicpolicy(t *testing.T) {
	runFixture(t, analysis.Panicpolicy, "envy/internal/panics") // message-shape rules
	runFixture(t, analysis.Panicpolicy, "envy")                 // public API: all panics flagged
	runFixture(t, analysis.Panicpolicy, "envy/cmd/tool")        // out of scope: clean
}

func TestExhaustive(t *testing.T) {
	runFixture(t, analysis.Exhaustive, "envy/internal/switcher") // module/local/hidden enums
	runFixture(t, analysis.Exhaustive, "envy/internal/flash")    // declarations only: clean
}

func TestMaporder(t *testing.T) {
	runFixture(t, analysis.Maporder, "envy/internal/stats") // map iteration order rules
}

// TestStaleSuppressions pins the suppression audit: a directive that
// suppresses a real diagnostic is live; one that suppresses nothing is
// reported stale.
func TestStaleSuppressions(t *testing.T) {
	const src = `package stats

// mergeCounts iterates a map in an order-sensitive way on purpose; the
// directive on the line above the range covers it.
func mergeCounts(m map[uint32]int64, out []int64) []int64 {
	//envyvet:allow maporder fixture exercises a live suppression
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// stale carries a directive with nothing to suppress.
func stale() {
	//envyvet:allow maporder nothing here violates anything
	_ = 0
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stale.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: &fixtureImporter{fset: fset, pkgs: make(map[string]*types.Package)}}
	pkg, err := conf.Check("envy/internal/stats", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	unit := &analysis.Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	audit := analysis.NewSuppressionAudit()
	if err := analysis.RunPackage(analysis.Maporder, unit, audit, func(d analysis.Diagnostic) {
		t.Errorf("diagnostic escaped a live suppression: %s", d.Message)
	}); err != nil {
		t.Fatal(err)
	}
	staleDiags := analysis.StaleSuppressions(fset, files, audit)
	if len(staleDiags) != 1 {
		t.Fatalf("StaleSuppressions returned %d diagnostics, want 1", len(staleDiags))
	}
	d := staleDiags[0]
	if !strings.Contains(d.Message, "//envyvet:allow maporder suppresses no diagnostic") {
		t.Errorf("stale message = %q", d.Message)
	}
	if line := fset.Position(d.Pos).Line; line != 15 {
		t.Errorf("stale directive reported at line %d, want 15", line)
	}
}

// TestRepoSelfCheck runs the full suite over the real module: the
// analyzers must hold their own codebase at zero findings, including
// zero stale suppressions.
func TestRepoSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := analysis.CheckModule([]string{"envy/..."})
	if err != nil {
		t.Fatalf("CheckModule: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestAll pins the suite contents: the driver, the //envyvet:allow
// parser and the docs rely on these five.
func TestAll(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	joined := strings.Join(names, " ")
	if joined != "exhaustive flashstate maporder panicpolicy simtime" {
		t.Fatalf("analyzer suite = %q", joined)
	}
}
