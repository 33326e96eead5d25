// Package analysis is a self-contained, dependency-free skeleton of
// the go/analysis model: an Analyzer inspects one type-checked package
// and reports Diagnostics. It exists because this module vendors no
// external tooling — the envyvet checkers (simtime, flashstate,
// panicpolicy, exhaustive, maporder) are built on it, and one driver,
// CheckModule, runs them over the module for both TestRepoSelfCheck
// and cmd/envyvet.
//
// The deliberate differences from golang.org/x/tools/go/analysis:
//
//   - Every analyzer is package-local: there are no facts, no Requires
//     graph and no dependency order. The two rules that used to need
//     cross-package reasoning are stated where they can be checked
//     locally — determinism as a ban at the source over every
//     importable package (simtime), lock order as a leaf-critical-
//     section guard test inside internal/cluster.
//
//   - Built-in suppression: a line comment of the form
//
//     //envyvet:allow <analyzer> [<analyzer>...] [— justification]
//
//     on the offending line, or on the line immediately above it
//     (matching the //nolint convention), silences the named analyzers
//     (or every analyzer, with the name "all") for that line. Tokens
//     after the analyzer names that are not registered analyzer names
//     are treated as free-form justification. Invariant-corruption
//     tests use this to mutate guarded state deliberately.
//
//   - Suppressions are audited: the driver records which directives
//     actually suppressed a diagnostic and reports the ones that no
//     longer suppress anything, so allowlist comments cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one checker: a name for diagnostics and suppression
// comments, documentation, and the per-package run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned within the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Package is one type-checked unit of analysis. TypesInfo must be
// populated with at least Types, Uses, Defs, and Selections.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	audit   *SuppressionAudit
	report  func(Diagnostic)
	allowed map[lineKey]map[string]bool
}

// lineKey identifies one source line across the file set.
type lineKey struct {
	file string
	line int
}

// Reportf records a diagnostic at pos unless an //envyvet:allow
// comment suppresses this analyzer on that line. Suppressed
// diagnostics are recorded in the pass's audit (when one is attached)
// so stale directives can be detected.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	key := lineKey{position.Filename, position.Line}
	if names := p.allowed[key]; names[p.Analyzer.Name] || names["all"] {
		if p.audit != nil {
			if names[p.Analyzer.Name] {
				p.audit.markUsed(key, p.Analyzer.Name)
			}
			if names["all"] {
				p.audit.markUsed(key, "all")
			}
		}
		return
	}
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunPackage applies one analyzer to one package, delivering the
// diagnostics that survive suppression to report. Suppressed
// diagnostics are recorded in audit when it is non-nil.
func RunPackage(a *Analyzer, unit *Package, audit *SuppressionAudit, report func(Diagnostic)) error {
	pass := &Pass{
		Analyzer:  a,
		Fset:      unit.Fset,
		Files:     unit.Files,
		Pkg:       unit.Pkg,
		TypesInfo: unit.TypesInfo,
		audit:     audit,
		report:    report,
		allowed:   suppressions(unit.Fset, unit.Files),
	}
	return a.Run(pass)
}

// A directive is one parsed //envyvet:allow comment.
type directive struct {
	pos   token.Pos
	file  string
	line  int      // the comment's own line
	names []string // recognized analyzer names (or "all"), in comment order
}

// registeredNames returns the set of analyzer names plus "all",
// computed lazily so parsing can stop the name list at the first
// free-form justification token.
func registeredNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// parseDirectives extracts every //envyvet:allow comment from files.
// Tokens after the last recognized analyzer name are justification
// text and are ignored.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	known := registeredNames()
	var out []directive
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, "//envyvet:allow")
				if !ok {
					continue
				}
				var names []string
				for _, field := range strings.Fields(text) {
					if !known[field] {
						break
					}
					names = append(names, field)
				}
				if len(names) == 0 {
					continue
				}
				position := fset.Position(c.Pos())
				out = append(out, directive{pos: c.Pos(), file: position.Filename, line: position.Line, names: names})
			}
		}
	}
	return out
}

// suppressions indexes every //envyvet:allow comment by the lines it
// covers: its own line (trailing-comment form) and the next line
// (comment-above form, matching the //nolint convention).
func suppressions(fset *token.FileSet, files []*ast.File) map[lineKey]map[string]bool {
	allowed := make(map[lineKey]map[string]bool)
	for _, d := range parseDirectives(fset, files) {
		for _, line := range []int{d.line, d.line + 1} {
			key := lineKey{d.file, line}
			if allowed[key] == nil {
				allowed[key] = make(map[string]bool)
			}
			for _, name := range d.names {
				allowed[key][name] = true
			}
		}
	}
	return allowed
}

// A SuppressionAudit records which suppression directives actually
// suppressed a diagnostic during a run, so the driver can flag the
// ones that no longer suppress anything. One audit covers one package
// across every analyzer in the suite.
type SuppressionAudit struct {
	used map[lineKey]map[string]bool
}

// NewSuppressionAudit returns an empty audit.
func NewSuppressionAudit() *SuppressionAudit {
	return &SuppressionAudit{used: make(map[lineKey]map[string]bool)}
}

func (a *SuppressionAudit) markUsed(key lineKey, name string) {
	if a.used[key] == nil {
		a.used[key] = make(map[string]bool)
	}
	a.used[key][name] = true
}

// StaleSuppressions returns one diagnostic per //envyvet:allow name in
// files that suppressed no diagnostic during the audited run. Run it
// only after every analyzer in the suite has run over the package with
// the same audit.
func StaleSuppressions(fset *token.FileSet, files []*ast.File, audit *SuppressionAudit) []Diagnostic {
	var out []Diagnostic
	for _, d := range parseDirectives(fset, files) {
		for _, name := range d.names {
			used := false
			for _, line := range []int{d.line, d.line + 1} {
				if audit.used[lineKey{d.file, line}][name] {
					used = true
					break
				}
			}
			if !used {
				out = append(out, Diagnostic{
					Pos:     d.pos,
					Message: fmt.Sprintf("suppress: //envyvet:allow %s suppresses no diagnostic; delete the stale directive", name),
				})
			}
		}
	}
	return out
}

// All returns the full envyvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Simtime, Flashstate, Panicpolicy, Exhaustive, Maporder}
}

// SortDiagnostics orders diagnostics by file position for stable
// driver output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
