package pagetable

import (
	"fmt"
	"sort"
)

// Differential flush metadata (page-differential logging). Under the
// differential flush policy a logical page's persistent image is not a
// single Flash page but a *base* page plus an ordered chain of diff
// records, each packed with records of other pages into a shared
// "unit" page. The page table entry keeps pointing at the base PPN —
// the encoding is unchanged — and the DiffDirectory below carries the
// per-page chain: where each record lives (unit PPN, record offset)
// and which page bytes it covers. Like the table itself, the directory
// is battery-backed SRAM: it survives power failure, which is what
// makes a chained page's image recoverable without scanning Flash.

// DiffLocBytes is the modelled SRAM cost of one chain element: unit
// PPN (4) + record offset (2) + page offset (2) + length (2).
const DiffLocBytes = 10

// DiffEntryBytes is the modelled SRAM cost of one directory entry
// beyond its chain: base PPN (4) + flags/length (2).
const DiffEntryBytes = 6

// DiffRecHeader is the on-flash header of one diff record inside a
// unit page: logical page (4) + page offset (2) + length (2).
const DiffRecHeader = 8

// DiffUnitHeader is the on-flash header of a unit page: record count.
const DiffUnitHeader = 2

// DiffLoc locates one diff record of a page's chain.
type DiffLoc struct {
	Unit    uint32 // physical page holding the shared unit
	RecOff  uint16 // byte offset of the record's payload within the unit
	PageOff uint16 // first logical-page byte the record covers
	Len     uint16 // record payload length
}

// DiffEntry is the directory's record for one chained logical page.
type DiffEntry struct {
	// Base is the Flash page holding the page's full pre-chain image.
	Base uint32

	// Chain lists the diff records layered over Base, oldest first.
	// Reconstructing the page applies each record's bytes in order.
	Chain []DiffLoc

	// KeptBase reports that the directory itself holds the liveness
	// claim on Base: the page is buffered in SRAM (its table entry
	// points at the write buffer) and Base was deliberately not
	// invalidated at copy-on-write, so a later differential flush can
	// program just a diff against it. When the table entry points at
	// Base, or a transaction shadow holds it, KeptBase is false.
	KeptBase bool
}

// unitMeta is the directory's view of one shared unit page: how many
// records are still referenced by chains, and by which pages.
type unitMeta struct {
	members []uint32 // logical pages with a live record in this unit
}

// DiffDirectory is the battery-backed map from logical page to base +
// diff chain, plus the reverse accounting of shared unit pages.
type DiffDirectory struct {
	entries map[uint32]*DiffEntry
	units   map[uint32]*unitMeta
}

// NewDiffDirectory returns an empty directory.
func NewDiffDirectory() *DiffDirectory {
	return &DiffDirectory{
		entries: make(map[uint32]*DiffEntry),
		units:   make(map[uint32]*unitMeta),
	}
}

// Entry returns the directory entry for a logical page, or nil. The
// caller may read the entry but must mutate it only through the
// directory's methods.
func (d *DiffDirectory) Entry(logical uint32) *DiffEntry {
	return d.entries[logical]
}

// Keep records that a copy-on-write kept the page's Flash base alive
// for future differential flushes, creating the entry if the page was
// not chained yet. claimed says whether the directory now holds the
// base's liveness claim (false when a transaction shadow took it).
func (d *DiffDirectory) Keep(logical, base uint32, claimed bool) {
	e := d.entries[logical]
	if e == nil {
		e = &DiffEntry{Base: base}
		d.entries[logical] = e
	} else if e.Base != base {
		panic(fmt.Sprintf("pagetable: diff entry for page %d kept base %d but chain is against base %d", logical, base, e.Base))
	}
	e.KeptBase = claimed
}

// SetKeptBase flips who claims the entry's base: true hands the claim
// to the directory (page went back to the buffer, or a transaction
// shadow released it), false hands it elsewhere (the table entry now
// points at the base, or a shadow captured it).
func (d *DiffDirectory) SetKeptBase(logical uint32, claimed bool) {
	e := d.entries[logical]
	if e == nil {
		panic(fmt.Sprintf("pagetable: no diff entry for page %d", logical))
	}
	e.KeptBase = claimed
}

// Append adds one completed diff record to a page's chain and takes a
// reference on its unit.
func (d *DiffDirectory) Append(logical uint32, loc DiffLoc) {
	e := d.entries[logical]
	if e == nil {
		panic(fmt.Sprintf("pagetable: appending diff record for unchained page %d", logical))
	}
	e.Chain = append(e.Chain, loc)
	m := d.units[loc.Unit]
	if m == nil {
		m = &unitMeta{}
		d.units[loc.Unit] = m
	}
	m.members = append(m.members, logical)
}

// DropChain releases every unit reference of a page's chain and clears
// it, returning (sorted) the unit pages whose last record died — the
// caller invalidates those on Flash. The entry itself survives (the
// base may still be kept).
func (d *DiffDirectory) DropChain(logical uint32) (dead []uint32) {
	e := d.entries[logical]
	if e == nil {
		return nil
	}
	for _, loc := range e.Chain {
		m := d.units[loc.Unit]
		for i, lpn := range m.members {
			if lpn == logical {
				m.members = append(m.members[:i], m.members[i+1:]...)
				break
			}
		}
		if len(m.members) == 0 {
			delete(d.units, loc.Unit)
			dead = append(dead, loc.Unit)
		}
	}
	e.Chain = nil
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return dead
}

// Drop removes a page's entry entirely: the chain is released as in
// DropChain, and base (valid only if kept is true) reports whether the
// directory still held the base's claim — the caller invalidates a
// kept base.
func (d *DiffDirectory) Drop(logical uint32) (dead []uint32, base uint32, kept bool) {
	e := d.entries[logical]
	if e == nil {
		return nil, 0, false
	}
	dead = d.DropChain(logical)
	base, kept = e.Base, e.KeptBase
	delete(d.entries, logical)
	return dead, base, kept
}

// Rebase follows a cleaner relocation of a page's base.
func (d *DiffDirectory) Rebase(logical, old, new uint32) {
	e := d.entries[logical]
	if e == nil || e.Base != old {
		panic(fmt.Sprintf("pagetable: rebasing page %d from %d: no matching diff entry", logical, old))
	}
	e.Base = new
}

// BaseKept reports whether the directory holds the liveness claim on
// old as page logical's kept base (the cleaner's remap consults this).
func (d *DiffDirectory) BaseKept(logical, old uint32) bool {
	e := d.entries[logical]
	return e != nil && e.Base == old && e.KeptBase
}

// RelocateUnit follows a cleaner relocation of a shared unit page:
// every chain element referencing old is repointed at new.
func (d *DiffDirectory) RelocateUnit(old, new uint32) {
	m := d.units[old]
	if m == nil {
		panic(fmt.Sprintf("pagetable: relocating unknown diff unit %d", old))
	}
	for _, lpn := range m.members {
		e := d.entries[lpn]
		for i := range e.Chain {
			if e.Chain[i].Unit == old {
				e.Chain[i].Unit = new
			}
		}
	}
	delete(d.units, old)
	d.units[new] = m
}

// UnitMembers returns (sorted) the logical pages with a live record in
// a unit page.
func (d *DiffDirectory) UnitMembers(unit uint32) []uint32 {
	m := d.units[unit]
	if m == nil {
		return nil
	}
	out := append([]uint32(nil), m.members...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entries calls fn for every chained page in ascending logical order.
// fn must not mutate the directory.
func (d *DiffDirectory) Entries(fn func(logical uint32, e *DiffEntry)) {
	keys := make([]uint32, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(k, d.entries[k])
	}
}

// Units calls fn for every referenced unit page in ascending PPN
// order. fn must not mutate the directory.
func (d *DiffDirectory) Units(fn func(unit uint32, members []uint32)) {
	keys := make([]uint32, 0, len(d.units))
	for k := range d.units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(k, d.UnitMembers(k))
	}
}

// Len returns the number of chained pages.
func (d *DiffDirectory) Len() int { return len(d.entries) }

// UnitCount returns the number of referenced unit pages.
func (d *DiffDirectory) UnitCount() int { return len(d.units) }

// SRAMBytes returns the battery-backed SRAM the directory occupies in
// hardware, alongside the table's own SRAMBytes.
func (d *DiffDirectory) SRAMBytes() int64 {
	total := int64(len(d.entries)) * DiffEntryBytes
	for _, e := range d.entries {
		total += int64(len(e.Chain)) * DiffLocBytes
	}
	return total
}
