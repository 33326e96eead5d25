// Command envyvet runs the module's static-analysis suite — simtime,
// flashstate, panicpolicy, exhaustive, maporder; see internal/analysis
// and DESIGN.md §8 — over the packages named on the command line:
//
//	go run ./cmd/envyvet ./...
//
// It is a thin shell over analysis.CheckModule, the same driver
// TestRepoSelfCheck runs in tier-1: `go list -deps -export -test -json`
// supplies the package list and compiler export data, every module
// package (test variants included) is type-checked from source, and
// each analyzer runs over each package on its own — no analyzer needs
// to see more than one package at a time.
//
// Findings print to stderr as file:line:col: message. A stale
// //envyvet:allow directive (one that suppresses nothing) is a finding
// too. Exit status: 0 clean, 2 findings, 1 the module failed to load.
package main

import (
	"fmt"
	"os"

	"envy/internal/analysis"
)

func main() {
	findings, err := analysis.CheckModule(os.Args[1:])
	for _, line := range findings {
		fmt.Fprintln(os.Stderr, line)
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "envyvet: %v\n", err)
		os.Exit(1)
	case len(findings) > 0:
		os.Exit(2)
	}
}
