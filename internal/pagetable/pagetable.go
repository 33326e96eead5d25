// Package pagetable implements eNVy's logical-to-physical page mapping
// (§3.3) and the MMU translation cache in front of it (§5.1).
//
// The page table is the critical persistent metadata: it lives in
// battery-backed SRAM because mappings change frequently and must be
// updated in place. Each entry costs 6 bytes against 256 bytes of
// Flash mapped — the ~10% SRAM overhead the paper budgets. A logical
// page resolves either to a physical Flash page or to the SRAM write
// buffer (after a copy-on-write and before the flush).
package pagetable

import (
	"fmt"

	"envy/internal/sim"
)

// EntryBytes is the modelled size of one page-table entry (§3.3).
const EntryBytes = 6

// entry encoding: high bit set means "in SRAM write buffer"; otherwise
// the low 31 bits are the physical page number. unmappedEntry marks a
// logical page that has never been written.
const (
	sramBit       = uint32(1) << 31
	unmappedEntry = ^uint32(0)
)

// Location is the resolved target of a logical page.
type Location struct {
	InSRAM bool   // page currently lives in the write buffer
	PPN    uint32 // physical Flash page, when !InSRAM
}

// Table maps logical page numbers to Locations: one encoded word per
// logical page (the paper's hardware has one table). Not safe for
// concurrent use; the controller that owns it is single-threaded.
type Table struct {
	entries []uint32
}

// New returns a table for n logical pages, all initially unmapped.
func New(n int) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("pagetable: need at least 1 logical page, got %d", n))
	}
	entries := make([]uint32, n)
	for i := range entries {
		entries[i] = unmappedEntry
	}
	return &Table{entries: entries}
}

// NewSharded returns New(n); the shard count is ignored.
//
// Deprecated: the sharded table was removed in PR 20. This shim exists
// only because the frozen bench/ (bench/probes.go,
// pagetable.lookup_sharded8_ref) compiles against it; the benchmark PR
// that drops that probe drops this too.
func NewSharded(n, _ int) *Table { return New(n) }

// Len returns the number of logical pages.
func (t *Table) Len() int { return len(t.entries) }

// SRAMBytes returns the battery-backed SRAM the table would occupy in
// hardware, for the cost accounting in §3.3.
func (t *Table) SRAMBytes() int64 { return int64(len(t.entries)) * EntryBytes }

// Lookup resolves a logical page. ok is false if the page has never
// been mapped.
func (t *Table) Lookup(logical uint32) (loc Location, ok bool) {
	return decode(t.entries[logical])
}

// Raw returns the encoded table entry for a logical page, exactly as
// stored: the mapping-tier subsystem serializes these opaque words
// into flash-resident mapping pages, and the invariant checker
// compares them against the cached copies. The encoding is otherwise
// private; callers must treat the value as a token whose only defined
// relation is equality with other Raw results for the same state.
func (t *Table) Raw(logical uint32) uint32 { return t.entries[logical] }

func decode(e uint32) (Location, bool) {
	if e == unmappedEntry {
		return Location{}, false
	}
	if e&sramBit != 0 {
		return Location{InSRAM: true}, true
	}
	return Location{PPN: e}, true
}

// MapFlash points a logical page at a physical Flash page. The update
// is atomic from the host's perspective (§3.1): the previous mapping is
// replaced in a single step.
func (t *Table) MapFlash(logical, ppn uint32) {
	if ppn&sramBit != 0 {
		panic(fmt.Sprintf("pagetable: physical page %d overflows the entry encoding", ppn))
	}
	t.entries[logical] = ppn
}

// MapSRAM points a logical page at the write buffer.
func (t *Table) MapSRAM(logical uint32) { t.entries[logical] = sramBit }

// Unmap removes a logical page's mapping (used only by tests and by
// TRIM-like maintenance; the paper's device never unmaps).
func (t *Table) Unmap(logical uint32) { t.entries[logical] = unmappedEntry }

// Range calls fn for every logical page in ascending order — read-only
// sweeps such as the invariant checker.
func (t *Table) Range(fn func(logical uint32, loc Location, ok bool)) {
	for i, e := range t.entries {
		loc, ok := decode(e)
		fn(uint32(i), loc, ok)
	}
}

// MMU is the translation cache (§5.1): "a memory management unit acts
// as a cache of recently used mappings to make this translation
// faster". It is modelled as a direct-mapped cache of logical page
// numbers. A hit costs nothing extra; a miss adds one SRAM page-table
// lookup to the access.
type MMU struct {
	tags    []uint32 // logical page cached in each set; NoTag if empty
	lookups int64
	misses  int64
	penalty sim.Duration
}

const noTag = ^uint32(0)

// NewMMU returns a direct-mapped translation cache with the given
// number of entries and per-miss penalty. Zero entries disables the
// cache: every translation misses (the ablation case).
func NewMMU(entries int, missPenalty sim.Duration) *MMU {
	m := &MMU{penalty: missPenalty}
	if entries > 0 {
		m.tags = make([]uint32, entries)
		for i := range m.tags {
			m.tags[i] = noTag
		}
	}
	return m
}

// Translate consults the cache for a logical page and returns the
// added latency of the translation: zero on a hit, the miss penalty on
// a miss. The mapping itself always comes from the Table; the MMU only
// models the timing.
func (m *MMU) Translate(logical uint32) sim.Duration {
	m.lookups++
	if len(m.tags) == 0 {
		m.misses++
		return m.penalty
	}
	set := int(logical) % len(m.tags)
	if m.tags[set] == logical {
		return 0
	}
	m.misses++
	m.tags[set] = logical
	return m.penalty
}

// TranslateRun translates up to max back-to-back accesses to one
// logical page, as many as cost the same: all of them when the page is
// cached (each a hit, cost zero), otherwise just the first (a miss that
// installs the page, exactly as Translate). It returns how many
// translations it performed and the added latency of each.
func (m *MMU) TranslateRun(logical uint32, max int) (n int, cost sim.Duration) {
	if len(m.tags) != 0 && m.tags[int(logical)%len(m.tags)] == logical {
		m.lookups += int64(max)
		return max, 0
	}
	return 1, m.Translate(logical)
}

// Update refreshes the cached entry for a logical page after the page
// table changed. The hardware updates the mapping in parallel with the
// data transfer (§5.1), so this costs no simulated time.
func (m *MMU) Update(logical uint32) {
	if len(m.tags) == 0 {
		return
	}
	m.tags[int(logical)%len(m.tags)] = logical
}

// Invalidate drops a cached entry if present.
func (m *MMU) Invalidate(logical uint32) {
	if len(m.tags) == 0 {
		return
	}
	set := int(logical) % len(m.tags)
	if m.tags[set] == logical {
		m.tags[set] = noTag
	}
}

// Stats returns the number of translations and misses served.
func (m *MMU) Stats() (lookups, misses int64) { return m.lookups, m.misses }

// HitRate returns the fraction of translations served from the cache.
func (m *MMU) HitRate() float64 {
	if m.lookups == 0 {
		return 0
	}
	return 1 - float64(m.misses)/float64(m.lookups)
}
