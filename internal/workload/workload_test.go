package workload

import (
	"math"
	"testing"

	"envy/internal/sim"
)

func TestBimodalSkew(t *testing.T) {
	g := NewBimodal(sim.Bimodal{HotData: 0.1, HotAccess: 0.9}, 1000, 1)
	hot := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next() < 100 {
			hot++
		}
	}
	if frac := float64(hot) / n; math.Abs(frac-0.9) > 0.01 {
		t.Errorf("hot fraction = %.3f", frac)
	}
	if g.Pages() != 1000 {
		t.Errorf("Pages = %d", g.Pages())
	}
}

func TestUniformCoverage(t *testing.T) {
	g := NewUniform(64, 2)
	seen := make(map[uint32]bool)
	for i := 0; i < 10000; i++ {
		seen[g.Next()] = true
	}
	if len(seen) != 64 {
		t.Errorf("covered %d of 64 pages", len(seen))
	}
}

func TestTraceReplay(t *testing.T) {
	g := NewBimodal(sim.Bimodal{HotData: 0.2, HotAccess: 0.8}, 100, 9)
	tr := Record(g, 50)
	if tr.Len() != 50 || tr.Pages() != 100 {
		t.Fatalf("trace shape %d/%d", tr.Len(), tr.Pages())
	}
	first := make([]uint32, 50)
	for i := range first {
		first[i] = tr.Next()
	}
	// Replay cycles identically.
	for i := 0; i < 50; i++ {
		if got := tr.Next(); got != first[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	tr := Record(NewUniform(10, 1), 0)
	if got := tr.Next(); got != 0 {
		t.Errorf("empty trace Next = %d", got)
	}
}

func TestStrings(t *testing.T) {
	for _, g := range []Generator{
		NewUniform(10, 1),
		NewZipfian(10, 0.99, 1),
		Record(NewUniform(10, 1), 5),
	} {
		if g.String() == "" {
			t.Errorf("%T has empty String()", g)
		}
	}
}
