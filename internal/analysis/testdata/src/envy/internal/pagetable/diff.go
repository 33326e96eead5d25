// DiffDirectory fixture: the diff-chain store behind the differential
// flush policy. Its mutators are guarded state transitions
// (flashstate), and the package sits in simtime's deterministic
// territory, so the wall-clock read is a violation.
package pagetable

import "time"

// DiffLoc is one diff record's address.
type DiffLoc struct {
	Unit uint32
}

// DiffDirectory maps chained logical pages to their base and records.
type DiffDirectory struct {
	chains int
}

// Keep pins a flushed base under a live chain.
func (d *DiffDirectory) Keep(logical, base uint32, claimed bool) {}

// SetKeptBase marks whether a transaction claims the kept base.
func (d *DiffDirectory) SetKeptBase(logical uint32, claimed bool) {}

// Append adds one diff record to a page's chain.
func (d *DiffDirectory) Append(logical uint32, loc DiffLoc) {
	d.chains++
}

// DropChain retires a page's chain, returning dead unit pages.
func (d *DiffDirectory) DropChain(logical uint32) (dead []uint32) { return nil }

// Drop removes a page's entry entirely.
func (d *DiffDirectory) Drop(logical uint32) (dead []uint32, base uint32, kept bool) {
	return nil, 0, false
}

// Rebase repoints a chained page's base after a copy.
func (d *DiffDirectory) Rebase(logical, old, new uint32) {}

// RelocateUnit repoints every record in a relocated unit page.
func (d *DiffDirectory) RelocateUnit(old, new uint32) {}

// Entry reads a page's chain state.
func (d *DiffDirectory) Entry(logical uint32) int { return 0 }

// UnitCount reads the live unit-page population.
func (d *DiffDirectory) UnitCount() int { return d.chains }

// stampChain leaks the wall clock into the mapping layer.
func stampChain() time.Time {
	return time.Now() // want `simtime: time\.Now reads the wall clock; simulated components must take time from sim\.Time`
}
