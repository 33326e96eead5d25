// Command envyvet runs the module's static-analysis suite (simtime,
// flashstate, panicpolicy, exhaustive, schedstate, maporder,
// claimgraph — see internal/analysis) in two modes.
//
// Standalone, for humans:
//
//	go run ./cmd/envyvet ./...
//
// shells out to `go list -deps -export -test -json` for package facts
// and compiler export data, type-checks every module package
// (including test variants) from source in dependency order with one
// shared fact store — so the cross-package analyzers see their
// dependencies' facts — and prints findings as file:line:col: message,
// exiting nonzero if there are any. Stale //envyvet:allow directives
// are findings too.
//
// As a vet tool, for CI and `go vet` caching:
//
//	go build -o envyvet ./cmd/envyvet
//	go vet -vettool=$(pwd)/envyvet ./...
//
// speaks the go vet unitchecker protocol: -V=full for the tool
// fingerprint, then one .cfg JSON file per package naming its sources,
// the export data of its dependencies, and their .vetx fact files.
// Facts serialize through the .vetx files, so cross-package analysis
// works identically under go vet — dependency packages are analyzed
// fact-only (VetxOnly), with their diagnostics suppressed.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"envy/internal/analysis"

	"go/ast"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			// No tool-specific flags; go vet asks for a JSON list.
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnitchecker(args[0]))
	}
	os.Exit(runStandalone(args))
}

// printVersion emits the fingerprint line the go command caches vet
// results under. The format must be "<name> version <version>", and a
// hash of the tool's own binary goes into the version token so
// rebuilding envyvet invalidates stale vet results.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version 1.0.0-%x\n", name, h.Sum(nil)[:16])
}

// ---------------- standalone driver ----------------

func runStandalone(patterns []string) int {
	findings, err := analysis.CheckModule(patterns)
	for _, line := range findings {
		fmt.Fprintln(os.Stderr, line)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
		return 1
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// ---------------- go vet unitchecker protocol ----------------

// vetConfig is the package description the go command writes for a
// vet tool (the fields of x/tools' unitchecker.Config this driver
// consumes). PackageVetx maps each dependency's import path to the
// .vetx fact file its own envyvet invocation wrote; VetxOutput is
// where this invocation must leave its facts.
type vetConfig struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnitchecker(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "envyvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	info := analysis.NewTypesInfo()
	pkg, err := conf.Check(analysis.ScrubImportPath(cfg.ImportPath), fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
		return 1
	}

	// Rebuild the fact store from the dependencies' .vetx files, run
	// the suite (quietly for VetxOnly dependency passes), and leave
	// this package's accumulated facts for its dependents.
	store := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
			return 1
		}
		if err := store.Merge(data); err != nil {
			fmt.Fprintf(os.Stderr, "envyvet: %s: %v\n", vetx, err)
			return 1
		}
	}
	unit := &analysis.Package{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	findings := analysis.CheckPackage(unit, store)
	if cfg.VetxOutput != "" {
		facts, err := store.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
			return 1
		}
		if err := os.WriteFile(cfg.VetxOutput, facts, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	for _, line := range findings {
		fmt.Fprintln(os.Stderr, line)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
