package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// leafCalls are the builtins and conversions a critical section may use;
// with the latency histogram behind mu, they are all it may call.
var leafCalls = map[string]bool{
	"append": true, "cap": true, "clear": true, "copy": true, "delete": true, "len": true,
	"make": true, "max": true, "min": true, "new": true, "sim.Duration": true, "time.Duration": true,
}

// muCall matches the call `<recv>.mu.<method>()` and returns recv.
func muCall(n ast.Node, method string) (recv string, ok bool) {
	if es, isStmt := n.(*ast.ExprStmt); isStmt {
		n = es.X
	}
	if call, isCall := n.(*ast.CallExpr); isCall {
		return strings.CutSuffix(types.ExprString(call.Fun), ".mu."+method)
	}
	return "", false
}

// callsUnderMu parses one file, counts its critical sections — from a
// mu.Lock() statement to the mu.Unlock() statement in the same block, or
// to the block's end — and lists every call inside one that is not a leaf.
func callsUnderMu(t *testing.T, name string, src any) (sections int, findings []string) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		block, _ := n.(*ast.BlockStmt)
		for i := 0; block != nil && i < len(block.List); i++ {
			recv, ok := muCall(block.List[i], "Lock")
			if !ok {
				continue
			}
			sections++
			for _, held := range block.List[i+1:] {
				if r, ok := muCall(held, "Unlock"); ok && r == recv {
					break
				}
				ast.Inspect(held, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						fn := types.ExprString(call.Fun)
						if !leafCalls[fn] && fn != recv+".mu.Unlock" && !strings.HasPrefix(fn, recv+".lat.") {
							findings = append(findings, fmt.Sprintf("%s: %s called while %s.mu is held", fset.Position(call.Pos()), fn, recv))
						}
					}
					return true
				})
			}
		}
		return true
	})
	return sections, findings
}

// TestLeafCriticalSections guards the module's one lock-order rule (see
// the package doc): a member's completion callback takes Cluster.mu with
// envy.Device.mu held, so a Cluster method calling into a member while
// holding mu is an AB-BA deadlock that -race only ever sees as a timeout.
// Every critical section must be a leaf: builtins, conversions and c.lat.
func TestLeafCriticalSections(t *testing.T) {
	names, _ := filepath.Glob("*.go")
	total := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		sections, findings := callsUnderMu(t, name, nil)
		total += sections
		if len(findings) > 0 {
			t.Error(strings.Join(findings, "\n"))
		}
	}
	if total == 0 {
		t.Fatal("no critical section found: the guard no longer matches how the package locks")
	}
	// The seeded mutation: bump asks its member under the lock (and again after it — fine).
	_, findings := callsUnderMu(t, "mutated.go", `package cluster
func (c *Cluster) bump(r *Request) {
	c.mu.Lock()
	if c.members[r.Shard].Outstanding() >= len(c.shards) {
		c.shards[r.Shard].backpressured++
	}
	c.mu.Unlock()
	c.members[r.Shard].Outstanding()
}`)
	if len(findings) != 1 || !strings.HasPrefix(findings[0], "mutated.go:4:5: c.members[r.Shard].Outstanding called") {
		t.Fatalf("mutated bump: findings = %q, want the one member call at mutated.go:4:5", findings)
	}
}
