package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSingleThreadedInternals guards the rule every determinism and
// race-freedom argument below the public API rests on: exactly one
// goroutine ever runs inside a device, so there are no lanes to race.
// No non-test file under internal/ may start a goroutine or import sync
// or sync/atomic, except cluster, whose subject is concurrency above
// the device (one device per member, racing callers; its own guard,
// TestLeafCriticalSections, keeps Cluster.mu a leaf). The module's one
// other lock is envy.Device.mu, outside internal/.
func TestSingleThreadedInternals(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || path == filepath.Join("..", "cluster") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %s: exactly one goroutine runs inside a device", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s starts a goroutine: exactly one goroutine runs inside a device", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
