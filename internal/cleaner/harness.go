package cleaner

import (
	"fmt"

	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/stats"
)

// Harness drives a cleaning engine with a raw page-update stream,
// bypassing the SRAM write buffer and all timing. It is the vehicle for
// the paper's cleaning-policy studies (Figures 6, 8, 9 and 10), which
// measure steady-state cleaning cost as a function of write locality
// and array organization only.
type Harness struct {
	arr      *flash.Array
	eng      *Engine
	table    []uint32 // logical page -> physical page; flash.NoPage if unmapped
	counters stats.Counters
}

// NewHarness builds a dataless Flash array with the given geometry,
// wraps it in an engine with cfg (LogicalPages defaulted to the
// standard 80% utilization cap if zero), and returns the harness.
func NewHarness(geo flash.Geometry, cfg Config) (*Harness, error) {
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = int(0.8 * float64(geo.Pages()))
	}
	arr, err := flash.New(geo, flash.PaperTiming(), flash.Dataless())
	if err != nil {
		return nil, err
	}
	h := &Harness{
		arr:   arr,
		table: make([]uint32, cfg.LogicalPages),
	}
	for i := range h.table {
		h.table[i] = flash.NoPage
	}
	h.eng, err = New(arr, cfg, func(logical, _, ppn uint32) { h.table[logical] = ppn }, &h.counters)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Engine exposes the underlying engine (for invariant checks in tests).
func (h *Harness) Engine() *Engine { return h.eng }

// Array exposes the underlying Flash array.
func (h *Harness) Array() *flash.Array { return h.arr }

// Counters returns the operation counts accumulated since the last
// ResetCounters.
func (h *Harness) Counters() stats.Counters { return h.counters }

// ResetCounters zeroes the measurement counters (typically after Load
// and warm-up so steady state is measured).
func (h *Harness) ResetCounters() { h.counters.Reset() }

// LogicalPages returns the size of the logical space in pages.
func (h *Harness) LogicalPages() int { return len(h.table) }

// Load writes every logical page once in address order, establishing
// the initial linear data layout. Counters are reset afterwards.
func (h *Harness) Load() {
	for lpn := range h.table {
		h.Write(uint32(lpn))
	}
	h.ResetCounters()
}

// Write performs one in-place page update as a bufferless eNVy would:
// the old Flash copy (if any) is invalidated and the new contents are
// flushed to the policy's chosen location.
func (h *Harness) Write(lpn uint32) {
	if int(lpn) >= len(h.table) {
		panic(fmt.Sprintf("cleaner: write to logical page %d beyond %d", lpn, len(h.table)))
	}
	old := h.table[lpn]
	home := h.eng.Home(lpn, old != flash.NoPage, old)
	if old != flash.NoPage {
		h.arr.Invalidate(old)
		h.table[lpn] = flash.NoPage
	}
	ppn, _ := h.eng.Flush(lpn, home, nil)
	h.table[lpn] = ppn
}

// Run drives the harness with writes drawn from dist: warm writes to
// reach steady state (not measured), then measure writes. It returns
// the cleaning cost (§4.1: cleaner programs per flushed page) over the
// measurement window.
func (h *Harness) Run(r *sim.RNG, dist sim.Bimodal, warm, measure int) float64 {
	for i := 0; i < warm; i++ {
		h.Write(uint32(dist.Draw(r, len(h.table))))
	}
	h.ResetCounters()
	for i := 0; i < measure; i++ {
		h.Write(uint32(dist.Draw(r, len(h.table))))
	}
	return h.counters.CleaningCost()
}

// CheckMapping verifies that the page table and the Flash array agree:
// every mapped logical page resolves to a Valid physical page owned by
// it, and the number of live Flash pages equals the number of mapped
// logical pages. Used by property tests.
func (h *Harness) CheckMapping() error {
	mapped := 0
	for lpn, ppn := range h.table {
		if ppn == flash.NoPage {
			continue
		}
		mapped++
		if st := h.arr.State(ppn); st != flash.Valid {
			return fmt.Errorf("logical %d maps to %v physical page %d", lpn, st, ppn)
		}
		if owner := h.arr.Owner(ppn); owner != uint32(lpn) {
			return fmt.Errorf("logical %d maps to physical %d owned by %d", lpn, ppn, owner)
		}
	}
	live := 0
	for seg := 0; seg < h.arr.Geometry().Segments; seg++ {
		_, l, _ := h.arr.SegmentCounts(seg)
		live += l
	}
	if live != mapped {
		return fmt.Errorf("%d live flash pages but %d mapped logical pages", live, mapped)
	}
	return nil
}
