package cleaner

import (
	"testing"

	"envy/internal/flash"
	"envy/internal/sim"
)

// TestHotSpotDriftAdapts: §4.3's locality gathering must cope with a
// working set that moves. After the hot region jumps to a different
// part of the address space, homes follow the pages (a page's home is
// wherever it currently lives, and its rewrites land there), so the
// product estimates shift and redistribution re-balances utilization.
// The test asserts the post-shift steady-state cost returns to within
// range of the pre-shift cost, rather than degrading permanently.
func TestHotSpotDriftAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("drift run is slow")
	}
	geo := flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 129, Banks: 1}
	h, err := NewHarness(geo, Config{Kind: Hybrid, PartitionSegments: 16})
	if err != nil {
		t.Fatal(err)
	}
	h.Load()
	n := h.LogicalPages()
	r := sim.NewRNG(21)
	hotN := n / 10

	run := func(offset, writes int) float64 {
		for i := 0; i < writes; i++ {
			var page int
			if r.Float64() < 0.9 {
				page = (offset + r.Intn(hotN)) % n
			} else {
				page = r.Intn(n)
			}
			h.Write(uint32(page))
		}
		h.ResetCounters()
		for i := 0; i < 10*n; i++ {
			var page int
			if r.Float64() < 0.9 {
				page = (offset + r.Intn(hotN)) % n
			} else {
				page = r.Intn(n)
			}
			h.Write(uint32(page))
		}
		c := h.Counters()
		return c.CleaningCost()
	}

	before := run(0, 60*n)
	// The hot set jumps to the middle of the address space.
	after := run(n/2, 60*n)
	if after > before*1.6 {
		t.Errorf("cost after hot-spot shift = %.2f, before = %.2f; gathering did not adapt", after, before)
	}
	if err := h.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialOverwriteIsCheap: cycling the whole address space in
// order invalidates segments wholesale, so any policy cleans nearly
// for free — the classic log-structured best case.
func TestSequentialOverwriteIsCheap(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: Greedy},
		{Kind: Hybrid, PartitionSegments: 16},
	} {
		h := newHarness(t, cfg)
		h.Load()
		n := h.LogicalPages()
		for i := 0; i < 5*n; i++ {
			h.Write(uint32(i % n))
		}
		h.ResetCounters()
		for i := 0; i < 5*n; i++ {
			h.Write(uint32(i % n))
		}
		c := h.Counters()
		if cost := c.CleaningCost(); cost > 0.6 {
			t.Errorf("%v: sequential overwrite cost = %.2f, want near 0", cfg.Kind, cost)
		}
	}
}
