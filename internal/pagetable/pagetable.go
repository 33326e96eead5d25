// Package pagetable implements eNVy's logical-to-physical page mapping
// (§3.3) and the MMU translation cache in front of it (§5.1).
//
// The page table is the critical persistent metadata: it lives in
// battery-backed SRAM because mappings change frequently and must be
// updated in place. Each entry costs 6 bytes against 256 bytes of
// Flash mapped — the ~10% SRAM overhead the paper budgets. A logical
// page resolves either to a physical Flash page or to the SRAM write
// buffer (after a copy-on-write and before the flush).
//
// The table is sharded by contiguous logical-page range, each shard
// behind its own read-write lock, so concurrent host initiators can
// translate different regions in parallel without the device mutex.
// Sharding is a wall-clock concern only: it never changes simulated
// timing, so any shard count produces bit-identical results. Deadlock
// discipline: code that acquires more than one shard lock must do so
// in ascending shard order (enforced by the envyvet shardlock
// analyzer).
package pagetable

import (
	"fmt"
	"sync"

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

// shard is one contiguous logical-page range of the table with its own
// lock.
type shard struct {
	mu      sync.RWMutex
	entries []uint32
}

// Table maps logical page numbers to Locations.
type Table struct {
	shards     []shard
	shardPages int // logical pages per shard (last shard may be short)
	n          int
}

// New returns a table for n logical pages, all initially unmapped, as
// a single shard (the paper's hardware has one table).
func New(n int) *Table { return NewSharded(n, 1) }

// NewSharded returns a table for n logical pages split into the given
// number of range shards. A non-positive or oversized shard count is
// clamped.
func NewSharded(n, shards int) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("pagetable: need at least 1 logical page, got %d", n))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	per := (n + shards - 1) / shards
	t := &Table{shards: make([]shard, shards), shardPages: per, n: n}
	left := n
	for i := range t.shards {
		size := per
		if size > left {
			size = left
		}
		left -= size
		entries := make([]uint32, size)
		for j := range entries {
			entries[j] = unmappedEntry
		}
		t.shards[i].entries = entries
	}
	return t
}

// Len returns the number of logical pages.
func (t *Table) Len() int { return t.n }

// Shards returns the number of range shards.
func (t *Table) Shards() int { return len(t.shards) }

// ShardOf returns the shard index owning a logical page.
func (t *Table) ShardOf(logical uint32) int { return int(logical) / t.shardPages }

// locate returns the shard and intra-shard index for a logical page.
func (t *Table) locate(logical uint32) (*shard, uint32) {
	s := &t.shards[int(logical)/t.shardPages]
	return s, logical % uint32(t.shardPages)
}

// SRAMBytes returns the battery-backed SRAM the table would occupy in
// hardware, for the cost accounting in §3.3.
func (t *Table) SRAMBytes() int64 { return int64(t.n) * EntryBytes }

// Lookup resolves a logical page. ok is false if the page has never
// been mapped. Safe for concurrent use: it takes only the owning
// shard's read lock, so initiators translating different ranges never
// contend.
func (t *Table) Lookup(logical uint32) (loc Location, ok bool) {
	s, i := t.locate(logical)
	s.mu.RLock()
	e := s.entries[i]
	s.mu.RUnlock()
	return decode(e)
}

// Raw returns the encoded table entry for a logical page, exactly as
// stored: the mapping-tier subsystem serializes these opaque words
// into flash-resident mapping pages, and the invariant checker
// compares them against the cached copies. The encoding is otherwise
// private; callers must treat the value as a token whose only defined
// relation is equality with other Raw results for the same state.
func (t *Table) Raw(logical uint32) uint32 {
	s, i := t.locate(logical)
	s.mu.RLock()
	e := s.entries[i]
	s.mu.RUnlock()
	return e
}

// LookupOwned resolves a logical page without touching the shard's
// read-write lock. Callers must already exclude every writer of the
// shard: the controller, whose table mutations all run under the
// device mutex it is called with, or an execution lane, which holds
// every shard in its footprint through an admission-time resource lock
// (internal/rlock) for the whole batch. The RWMutex round-trip — two
// atomics per host word on the hot path — buys nothing there.
func (t *Table) LookupOwned(logical uint32) (loc Location, ok bool) {
	s, i := t.locate(logical)
	return decode(s.entries[i])
}

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
	s, i := t.locate(logical)
	s.mu.Lock()
	s.entries[i] = ppn
	s.mu.Unlock()
}

// MapSRAM points a logical page at the write buffer.
func (t *Table) MapSRAM(logical uint32) {
	s, i := t.locate(logical)
	s.mu.Lock()
	s.entries[i] = sramBit
	s.mu.Unlock()
}

// Unmap removes a logical page's mapping (used only by tests and by
// TRIM-like maintenance; the paper's device never unmaps).
func (t *Table) Unmap(logical uint32) {
	s, i := t.locate(logical)
	s.mu.Lock()
	s.entries[i] = unmappedEntry
	s.mu.Unlock()
}

// Range calls fn for every logical page in ascending order, holding
// each shard's read lock across its run of pages (one shard at a time,
// in ascending shard order — the lock discipline the shardlock
// analyzer enforces). Mutating the table from fn would self-deadlock;
// Range is for read-only sweeps such as the invariant checker.
func (t *Table) Range(fn func(logical uint32, loc Location, ok bool)) {
	base := uint32(0)
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.RLock()
		for i, e := range s.entries {
			logical := base + uint32(i)
			switch {
			case e == unmappedEntry:
				fn(logical, Location{}, false)
			case e&sramBit != 0:
				fn(logical, Location{InSRAM: true}, true)
			default:
				fn(logical, Location{PPN: e}, true)
			}
		}
		s.mu.RUnlock()
		base += uint32(len(s.entries))
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
