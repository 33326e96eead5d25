// Package maptier implements the two-tier page table: a flash-resident
// mapping table behind a fixed-budget SRAM cache, breaking the §4 cost
// analysis's capacity cap (the flat table's battery-backed SRAM grows
// linearly with logical pages — 6 bytes per page).
//
// The design follows the page-mapping FTL literature (Dayan & Bonnet,
// "Garbage Collection Techniques for Flash-Resident Page-Mapping
// FTLs"): the page table is serialized into fixed-size mapping pages
// stored in a dedicated translation region of the Flash array, and a
// battery-backed mapping directory — 4 bytes per mapping page, ~64×
// smaller than the flat table — records where the current durable copy
// of every mapping page lives. A small SRAM cache holds the hot
// mapping pages; host translations that miss the cache pay one Flash
// read to fetch the needed page.
//
// Consistency model. The controller's flat pagetable.Table remains the
// authoritative battery-backed truth (it is what the flat-SRAM
// baseline uses); the tier mirrors its encoded entries into mapping
// pages. In the simulation this costs nothing to keep exact — the real
// system this models would hold only the directory, the cache, and a
// journal in SRAM. Every table mutation notifies the tier (Dirty),
// which updates the cached copy and eventually writes it back; the
// invariant checker verifies that every cached mapping page matches
// the table, that clean cached pages and all uncached pages match
// their durable Flash copy bit for bit, and that the directory covers
// every mapping page exactly once.
//
// Durability protocol. A mapping page's directory entry always points
// at a fully-programmed Valid copy. Writebacks program the new copy
// first and retarget the directory only when the program completes
// (background writebacks: at the scheduled op's completion; eviction
// writebacks: synchronously); a crash mid-program therefore leaves a
// torn page that no record references — quarantined at mount — while
// the directory still holds the old copy, and the battery-backed cache
// frame still holds the newest entries. Translation-segment cleaning
// is guarded by a battery-backed intent record, like the data
// cleaner's: recovery finishes an interrupted clean from the intent.
package maptier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"envy/internal/flash"
	"envy/internal/pagetable"
	"envy/internal/sched"
	"envy/internal/sim"
	"envy/internal/stats"
)

// Params are the user-tunable knobs, carried on core.Config.MapTier.
// The zero value of each field selects a default.
type Params struct {
	// CacheFrames is the SRAM mapping-page cache budget, in mapping
	// pages (default 64, minimum 8). The cache plus the directory is
	// the tier's entire battery-backed SRAM footprint.
	CacheFrames int

	// SegmentPages is the translation-segment size in pages (default
	// 256). Translation segments are erase units like data segments;
	// smaller segments bound the latency of a translation clean.
	SegmentPages int

	// HighWater is the dirty-frame fraction of the cache that starts
	// the background writeback drain (default 0.5); LowWater is where
	// draining stops (default 0.25).
	HighWater, LowWater float64
}

// Config assembles a Tier; internal/core derives it from the device
// geometry plus Params.
type Config struct {
	Params

	// LogicalPages is the number of logical data pages the table maps.
	LogicalPages int

	// PageSize is the mapping-page size in bytes — the same as the
	// data page size, so mapping pages ride the same Flash geometry.
	PageSize int

	// Banks is the device's Flash bank count; translation segments
	// stripe across the same banks as data segments, and the tier's
	// background ops claim those banks in the shared scheduler.
	Banks int

	// Timing holds the Flash chip timing constants for the
	// translation region (normally the device's).
	Timing flash.Timing

	// LookupCost is one battery-backed SRAM access — the cost of a
	// translation that hits the mapping cache (the flat table's
	// PTLookup; default 100 ns).
	LookupCost sim.Duration
}

// Counters is the tier's cumulative activity, surfaced through
// envy.Stats.
type Counters struct {
	// Hits and Misses count host translations served from the mapping
	// cache versus those that had to fetch a mapping page from Flash.
	Hits, Misses int64

	// Fetches counts mapping-page reads from Flash into the cache
	// (host misses plus background ensure-cached loads).
	Fetches int64

	// Writebacks counts background mapping-page writeback programs
	// scheduled through internal/sched; SyncWritebacks counts
	// synchronous eviction writebacks (a cache miss found every frame
	// dirty and had to program one out on the spot).
	Writebacks, SyncWritebacks int64

	// Cleans, CleanCopies and Erases count translation-segment cleans,
	// the live mapping pages they copied, and translation-segment
	// erases.
	Cleans, CleanCopies, Erases int64
}

// HitRate returns the fraction of host translations served from the
// mapping cache.
func (c Counters) HitRate() float64 {
	if total := c.Hits + c.Misses; total > 0 {
		return float64(c.Hits) / float64(total)
	}
	return 0
}

// frame is one cached mapping page. Frames live on a doubly-linked LRU
// list; head is most recently used.
type frame struct {
	idx  uint32 // mapping-page index
	data []byte // serialized entries, PageSize bytes

	// dirty marks entries newer than the durable Flash copy;
	// flushing marks a background writeback program in flight;
	// dirtied marks a frame re-written while its writeback was in
	// flight (the completing program's copy is stale on arrival).
	dirty, flushing, dirtied bool

	prev, next *frame
}

// intent is the battery-backed record of an in-progress translation
// clean: live mapping pages are being copied from victim into dest
// (the erased spare). Recovery finishes an open intent.
type intent struct {
	open         bool
	victim, dest int
}

// Tier is the two-tier page table: directory + cache over a
// translation Flash region. It is not safe for concurrent use: like
// the rest of the controller, it is only ever reached by the one
// goroutine holding the device mutex. Simulated-time accounting remains
// the caller's job, as everywhere in the controller.
type Tier struct {
	cfg   Config
	table *pagetable.Table

	perPage  int // mapping entries per mapping page
	pages    int // mapping-page count
	segPages int // translation-segment size in pages

	// arr is the translation Flash region. It always stores payloads —
	// the mapping pages are the payload — even on dataless devices.
	arr *flash.Array

	// dir is the battery-backed mapping directory: mapping-page index
	// → physical page in arr holding its current durable copy. Every
	// entry is always a Valid page; there is no unmapped state.
	dir []uint32

	// frames is the SRAM mapping cache, bounded by CacheFrames.
	frames     map[uint32]*frame
	head, tail *frame // LRU list; head = most recently used
	dirty      int    // frames with dirty set (flushing frames excluded)

	// inflight records scheduled background writebacks: mapping-page
	// index → target ppn of the eagerly-programmed new copy. The
	// directory still points at the old copy until the op completes.
	inflight map[uint32]uint32

	intent intent

	// active is the translation segment being appended to and cursor
	// its next free page; spare is the always-erased segment cleans
	// copy into (the tier's own §3.4 spare-segment invariant).
	active, spare, cursor int

	high, low, maxInflight int

	// enq hands a background op to the device's scheduler.
	enq func(*sched.Op)

	c Counters
}

// New builds and formats a tier: the translation region is sized from
// the mapping-page count with cleaning slack, every mapping page is
// programmed with the table's current (normally all-unmapped) entries,
// and the directory records each copy. Formatting is untimed, like
// device construction itself.
func New(cfg Config, table *pagetable.Table, enq func(*sched.Op)) (*Tier, error) {
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("maptier: LogicalPages %d", cfg.LogicalPages)
	}
	if cfg.PageSize < pagetable.EntryBytes {
		return nil, fmt.Errorf("maptier: PageSize %d below one entry (%d bytes)", cfg.PageSize, pagetable.EntryBytes)
	}
	if cfg.Banks < 1 {
		return nil, fmt.Errorf("maptier: Banks %d", cfg.Banks)
	}
	if cfg.CacheFrames == 0 {
		cfg.CacheFrames = 64
	}
	if cfg.CacheFrames < 8 {
		return nil, fmt.Errorf("maptier: CacheFrames %d below minimum 8", cfg.CacheFrames)
	}
	if cfg.SegmentPages == 0 {
		cfg.SegmentPages = 256
	}
	if cfg.SegmentPages < 1 {
		return nil, fmt.Errorf("maptier: SegmentPages %d", cfg.SegmentPages)
	}
	if cfg.HighWater == 0 {
		cfg.HighWater = 0.5
	}
	if cfg.LowWater == 0 {
		cfg.LowWater = 0.25
	}
	if cfg.LowWater < 0 || cfg.LowWater >= cfg.HighWater || cfg.HighWater > 1 {
		return nil, fmt.Errorf("maptier: watermarks low %v, high %v", cfg.LowWater, cfg.HighWater)
	}
	if cfg.LookupCost == 0 {
		cfg.LookupCost = 100 * sim.Nanosecond
	}

	t := &Tier{
		cfg:      cfg,
		table:    table,
		perPage:  cfg.PageSize / pagetable.EntryBytes,
		frames:   make(map[uint32]*frame),
		inflight: make(map[uint32]uint32),
		enq:      enq,
	}
	t.pages = (cfg.LogicalPages + t.perPage - 1) / t.perPage
	t.segPages = cfg.SegmentPages
	t.maxInflight = cfg.CacheFrames / 4
	if t.maxInflight > t.segPages/2 {
		// A burst of eager writeback programs can fill append space
		// before any completion invalidates an old copy; keeping the
		// burst under half a segment (with canAppend backing drains
		// off) keeps cleaning able to reclaim.
		t.maxInflight = t.segPages / 2
	}
	if t.maxInflight < 1 {
		t.maxInflight = 1
	}
	t.high = int(cfg.HighWater * float64(cfg.CacheFrames))
	if t.high < 1 {
		t.high = 1
	}
	t.low = int(cfg.LowWater * float64(cfg.CacheFrames))

	// Size the translation region: the mapping pages themselves, 25%
	// cleaning slack, the in-flight writeback copies, and a dedicated
	// spare segment — rounded up to a whole number of banks.
	need := t.pages + t.pages/4 + t.maxInflight + 2*t.segPages
	segs := (need + t.segPages - 1) / t.segPages
	if segs < 2 {
		segs = 2
	}
	if rem := segs % cfg.Banks; rem != 0 {
		segs += cfg.Banks - rem
	}
	geo := flash.Geometry{
		PageSize:        cfg.PageSize,
		PagesPerSegment: t.segPages,
		Segments:        segs,
		Banks:           cfg.Banks,
	}
	arr, err := flash.New(geo, cfg.Timing)
	if err != nil {
		return nil, fmt.Errorf("maptier: translation region: %w", err)
	}
	t.arr = arr

	// Format: program every mapping page sequentially from segment 0,
	// leaving the last segment erased as the spare.
	t.dir = make([]uint32, t.pages)
	buf := make([]byte, cfg.PageSize)
	for idx := 0; idx < t.pages; idx++ {
		t.serialize(uint32(idx), buf)
		ppn := uint32(idx)
		t.arr.Program(ppn, uint32(idx), buf)
		t.dir[idx] = ppn
	}
	t.active = t.pages / t.segPages
	t.cursor = t.pages % t.segPages
	t.spare = segs - 1
	if t.active >= t.spare {
		// Cannot happen with the slack above; guard the spare anyway.
		return nil, fmt.Errorf("maptier: translation region too small: %d mapping pages in %d segments", t.pages, segs)
	}
	return t, nil
}

// serialize writes mapping page idx's entries — the table's current
// encoded words — into buf. Entries are pagetable.EntryBytes wide: the
// 4-byte encoded word plus zero padding, so a mapping page holds
// PageSize/EntryBytes entries. Slots past LogicalPages stay zero.
func (t *Tier) serialize(idx uint32, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	first := int(idx) * t.perPage
	for slot := 0; slot < t.perPage; slot++ {
		lpn := first + slot
		if lpn >= t.cfg.LogicalPages {
			break
		}
		binary.LittleEndian.PutUint32(buf[slot*pagetable.EntryBytes:], t.table.Raw(uint32(lpn)))
	}
}

// pageOf returns the mapping-page index covering a logical page.
func (t *Tier) pageOf(lpn uint32) uint32 { return lpn / uint32(t.perPage) }

// Access charges one host translation: the cost of resolving a
// logical page through the tier on an MMU miss. A cache hit costs one
// SRAM lookup; a miss fetches the mapping page from Flash (and may
// first have to write back a dirty frame to make room).
func (t *Tier) Access(lpn uint32) sim.Duration {
	idx := t.pageOf(lpn)
	if f, ok := t.frames[idx]; ok {
		t.c.Hits++
		t.touch(f)
		return t.cfg.LookupCost
	}
	t.c.Misses++
	return t.cfg.LookupCost + t.fetch(idx)
}

// EnsureCached pulls lpn's mapping page into the cache if it is cold
// (untimed — hidden under the mutating operation's own accounting).
// This is the first half of the mutation protocol: callers invoke it
// BEFORE changing the table entry, because making room can program
// Flash (an eviction writeback, possibly a translation clean behind
// it), and those programs are crash points. Crashing here is safe —
// nothing host-visible has been mutated yet and the tier's own
// program-then-retarget discipline keeps it internally consistent.
func (t *Tier) EnsureCached(lpn uint32) {
	idx := t.pageOf(lpn)
	if _, ok := t.frames[idx]; !ok {
		t.fetch(idx)
	}
}

// Update records that the table entry for lpn changed to raw: the
// cached mapping page absorbs the new word and is marked dirty. This
// is the second half of the mutation protocol — pure battery-backed
// SRAM, no Flash operations and therefore no crash points, so the
// table mutation and its tier mirror are atomic with respect to power
// failure. The mapping page must already be cached (EnsureCached);
// anything else is a protocol violation in the controller.
func (t *Tier) Update(lpn uint32, raw uint32) {
	idx := t.pageOf(lpn)
	f, ok := t.frames[idx]
	if !ok {
		panic(fmt.Sprintf("maptier: Update of logical page %d without EnsureCached (mapping page %d cold)", lpn, idx))
	}
	slot := int(lpn) % t.perPage
	binary.LittleEndian.PutUint32(f.data[slot*pagetable.EntryBytes:], raw)
	switch {
	case f.flushing:
		f.dirtied = true
	case !f.dirty:
		f.dirty = true
		t.dirty++
	}
	t.touch(f)
}

// Drain schedules background writebacks if the dirty-frame population
// has crossed the high-water mark (or a drain is already underway).
// The controller calls it after a mutating transition fully completes
// — never in the middle of one, because the eager writeback programs
// are crash points. A crash inside Drain is always recoverable: a torn
// program recorded in-flight is discarded at mount, an unrecorded one
// is swept by the quarantine pass, and an interrupted translation
// clean finishes from its intent.
func (t *Tier) Drain() {
	t.drain(len(t.inflight) > 0)
}

// fetch loads mapping page idx from its durable copy into a fresh
// cache frame, evicting first if the cache is full, and returns the
// Flash time the load took.
func (t *Tier) fetch(idx uint32) sim.Duration {
	var cost sim.Duration
	if len(t.frames) >= t.cfg.CacheFrames {
		cost += t.evict()
	}
	f := &frame{idx: idx, data: make([]byte, t.cfg.PageSize)}
	copy(f.data, t.arr.Page(t.dir[idx]))
	t.frames[idx] = f
	t.pushFront(f)
	t.c.Fetches++
	return cost + t.arr.ReadTime() + t.arr.TransferTime()
}

// evict frees one cache frame: the least recently used clean frame if
// any, else the least recently used dirty frame after synchronously
// writing it back (the returned duration — one transfer + program).
// Frames with a writeback in flight are never evicted; the in-flight
// bound guarantees a candidate exists.
func (t *Tier) evict() sim.Duration {
	for f := t.tail; f != nil; f = f.prev {
		if !f.dirty && !f.flushing {
			t.unlink(f)
			delete(t.frames, f.idx)
			return 0
		}
	}
	if !t.canAppend() {
		// Every frame is dirty and every stale durable copy's
		// invalidation is still deferred behind an in-flight
		// completion, so there is nowhere to program a writeback.
		// Unreachable while drains hold dirty near the high-water
		// mark, because the in-flight cap is far below the frame
		// count; a clean frame always exists first.
		panic("maptier: eviction needs a writeback but the translation region has no appendable or reclaimable page")
	}
	for f := t.tail; f != nil; f = f.prev {
		if !f.flushing {
			cost := t.syncWriteback(f)
			t.unlink(f)
			delete(t.frames, f.idx)
			return cost
		}
	}
	panic("maptier: every cache frame has a writeback in flight")
}

// canAppend reports whether a new durable copy can be programmed now:
// either the append segment has room, or a clean can make room because
// some segment holds invalid pages. Transiently false when scheduled
// writebacks have filled the append segment while every stale copy's
// invalidation still waits on an op completion — drains back off until
// a completion (which always invalidates one page) restarts them.
func (t *Tier) canAppend() bool {
	return t.cursor < t.segPages || t.freeSegment() >= 0 || t.hasInvalid()
}

// hasInvalid reports whether any non-spare translation segment holds
// an invalid page — i.e. whether a clean could reclaim space right
// now.
func (t *Tier) hasInvalid() bool {
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		if seg == t.spare {
			continue
		}
		if _, _, invalid := t.arr.SegmentCounts(seg); invalid > 0 {
			return true
		}
	}
	return false
}

// syncWriteback programs frame f's mapping page out and retargets the
// directory on the spot: the eviction path cannot wait for a scheduled
// op. The program-then-retarget order makes it crash-atomic — a tear
// inside the program leaves the directory on the old copy. The
// returned duration is charged to the access that forced the eviction.
func (t *Tier) syncWriteback(f *frame) sim.Duration {
	ppn := t.alloc()
	t.arr.Program(ppn, f.idx, f.data)
	old := t.dir[f.idx]
	t.dir[f.idx] = ppn
	t.arr.Invalidate(old)
	if f.dirty {
		f.dirty = false
		t.dirty--
	}
	t.c.SyncWritebacks++
	return t.arr.TransferTime() + t.arr.ProgramTime(int(ppn)/t.segPages)
}

// drain schedules background writebacks of the oldest dirty frames:
// started by crossing the high-water mark (or, with started true, by a
// completing writeback while still above the low-water mark), bounded
// by the in-flight cap.
//
// Eager programs never consume the append segment's last free slot:
// their old-copy invalidation is deferred until the op completes, so a
// burst of them could otherwise exhaust every appendable page while
// leaving cleaning nothing to reclaim. Reserving the last slot keeps
// canAppend true at all times for the synchronous eviction path
// (whose program invalidates immediately, sustaining the invariant).
func (t *Tier) drain(started bool) {
	if !started && t.dirty < t.high {
		return
	}
	for t.dirty > t.low && len(t.inflight) < t.maxInflight {
		for t.cursor+1 >= t.segPages && (t.freeSegment() >= 0 || t.hasInvalid()) {
			t.makeRoom()
		}
		if t.cursor+1 >= t.segPages {
			return
		}
		var victim *frame
		for f := t.tail; f != nil; f = f.prev {
			if f.dirty && !f.flushing {
				victim = f
				break
			}
		}
		if victim == nil {
			return
		}
		t.scheduleWriteback(victim)
	}
}

// scheduleWriteback eagerly programs frame f's new durable copy and
// queues the timed OpMapFlush that will retarget the directory when
// the program physically completes. Until then the in-flight record
// holds the only reference to the new copy; a crash tears it (the
// frame itself is battery-backed and loses nothing).
func (t *Tier) scheduleWriteback(f *frame) {
	ppn := t.alloc()
	t.arr.Program(ppn, f.idx, f.data)
	t.inflight[f.idx] = ppn
	f.flushing = true
	f.dirtied = false
	f.dirty = false
	t.dirty--
	t.c.Writebacks++
	idx := f.idx
	seg := int(ppn) / t.segPages
	t.enq(&sched.Op{
		Kind:      stats.OpMapFlush,
		Act:       stats.Flushing,
		Remaining: t.arr.TransferTime() + t.arr.ProgramTime(seg),
		Bank:      seg % t.cfg.Banks,
		Done:      func() { t.finishWriteback(idx) },
	})
}

// finishWriteback completes a background writeback: the directory
// flips to the new copy and the old one is invalidated — unless the
// frame was re-dirtied mid-flight, in which case the just-programmed
// copy is already stale and is discarded instead (the directory keeps
// the old copy; the frame goes back to dirty).
func (t *Tier) finishWriteback(idx uint32) {
	ppn, ok := t.inflight[idx]
	if !ok {
		panic(fmt.Sprintf("maptier: finishing writeback of mapping page %d with no record", idx))
	}
	delete(t.inflight, idx)
	f := t.frames[idx]
	if f == nil || !f.flushing {
		panic(fmt.Sprintf("maptier: finishing writeback of mapping page %d with no flushing frame", idx))
	}
	f.flushing = false
	if f.dirtied {
		f.dirtied = false
		f.dirty = true
		t.dirty++
		t.arr.Invalidate(ppn)
	} else {
		old := t.dir[idx]
		t.dir[idx] = ppn
		t.arr.Invalidate(old)
	}
	t.drain(true)
}

// alloc returns the next free translation page, making room when the
// append segment is exhausted.
func (t *Tier) alloc() uint32 {
	for t.cursor == t.segPages {
		t.makeRoom()
	}
	ppn := uint32(t.active*t.segPages + t.cursor)
	t.cursor++
	return ppn
}

// makeRoom points the append cursor at fresh space: a fully erased
// non-spare segment if one exists (the region's capacity slack starts
// out as erased segments past the formatted prefix), else a clean of
// the most-invalid segment into the spare. Callers guarantee canAppend.
func (t *Tier) makeRoom() {
	if seg := t.freeSegment(); seg >= 0 {
		t.active, t.cursor = seg, 0
		return
	}
	t.clean()
}

// freeSegment returns a fully erased segment that is neither the
// spare nor the current append segment, or -1.
func (t *Tier) freeSegment() int {
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		if seg == t.spare || seg == t.active {
			continue
		}
		if free, _, _ := t.arr.SegmentCounts(seg); free == t.segPages {
			return seg
		}
	}
	return -1
}

// clean copies the most-invalid translation segment's live mapping
// pages into the spare, erases it, and rotates: the old spare (now
// holding the copies) becomes the append segment, the erased victim
// the new spare. The battery-backed intent record brackets the whole
// operation so recovery can finish it after a crash at any program or
// the erase. Time is charged through OpMapClean/OpMapErase ops on the
// shared scheduler.
func (t *Tier) clean() {
	victim := t.pickVictim()
	dest := t.spare
	t.intent = intent{open: true, victim: victim, dest: dest}
	copied := t.copyOut(victim, dest, 0)
	eraseTime := t.arr.EraseTime(victim)
	t.arr.Erase(victim)
	t.finishRotation(victim, dest, copied)
	if copied > 0 {
		per := t.arr.TransferTime() + t.arr.ProgramTime(dest)
		t.enq(&sched.Op{
			Kind:      stats.OpMapClean,
			Act:       stats.Cleaning,
			Remaining: per * sim.Duration(copied),
			Bank:      dest % t.cfg.Banks,
		})
	}
	t.enq(&sched.Op{
		Kind:      stats.OpMapErase,
		Act:       stats.Erasing,
		Remaining: eraseTime,
		Bank:      victim % t.cfg.Banks,
	})
}

// pickVictim selects the clean victim: the non-spare segment with the
// most invalid pages (lowest index on ties). Callers reach a clean
// only through the canAppend guard, which guarantees one exists.
func (t *Tier) pickVictim() int {
	best, bestInvalid := -1, 0
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		if seg == t.spare {
			continue
		}
		_, _, invalid := t.arr.SegmentCounts(seg)
		if invalid > bestInvalid {
			best, bestInvalid = seg, invalid
		}
	}
	if best < 0 {
		panic("maptier: no translation segment has invalid pages to clean")
	}
	return best
}

// copyOut relocates victim's live mapping pages into dest starting at
// dest's page destCursor, retargeting the directory or in-flight
// record for each, and returns how many pages it copied. Each program
// is a crash point; the per-page program→retarget→invalidate order
// keeps every mapping page durably referenced throughout.
func (t *Tier) copyOut(victim, dest, destCursor int) int {
	type live struct {
		page int
		idx  uint32
	}
	var pages []live
	t.arr.LivePages(victim, func(page int, idx uint32) {
		pages = append(pages, live{page, idx})
	})
	for _, lv := range pages {
		old := uint32(victim*t.segPages + lv.page)
		ppn := uint32(dest*t.segPages + destCursor)
		destCursor++
		t.arr.Program(ppn, lv.idx, t.arr.Page(old))
		switch {
		case t.dir[lv.idx] == old:
			t.dir[lv.idx] = ppn
		default:
			if p, ok := t.inflight[lv.idx]; ok && p == old {
				t.inflight[lv.idx] = ppn
			} else {
				panic(fmt.Sprintf("maptier: live mapping page %d at %d claimed by no record", lv.idx, old))
			}
		}
		t.arr.Invalidate(old)
	}
	return len(pages)
}

// finishRotation completes a clean after the victim's erase: segment
// roles rotate and the intent closes.
func (t *Tier) finishRotation(victim, dest, copied int) {
	t.spare = victim
	t.active = dest
	t.cursor = t.segPages - t.freePages(dest)
	t.intent = intent{}
	t.c.Cleans++
	t.c.CleanCopies += int64(copied)
	t.c.Erases++
}

// freePages returns a segment's free-page count.
func (t *Tier) freePages(seg int) int {
	free, _, _ := t.arr.SegmentCounts(seg)
	return free
}

// touch moves f to the LRU head.
func (t *Tier) touch(f *frame) {
	if t.head == f {
		return
	}
	t.unlink(f)
	t.pushFront(f)
}

func (t *Tier) pushFront(f *frame) {
	f.prev = nil
	f.next = t.head
	if t.head != nil {
		t.head.prev = f
	}
	t.head = f
	if t.tail == nil {
		t.tail = f
	}
}

func (t *Tier) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		t.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		t.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// Array exposes the translation Flash region for the invariant checker
// and recovery; callers outside this package must not mutate it.
func (t *Tier) Array() *flash.Array { return t.arr }

// Pages returns the mapping-page count.
func (t *Tier) Pages() int { return t.pages }

// EntriesPerPage returns how many table entries one mapping page
// holds.
func (t *Tier) EntriesPerPage() int { return t.perPage }

// CacheFrames returns the configured cache budget in frames.
func (t *Tier) CacheFrames() int { return t.cfg.CacheFrames }

// DirectoryBytes returns the battery-backed directory footprint: 4
// bytes per mapping page.
func (t *Tier) DirectoryBytes() int64 { return int64(t.pages) * 4 }

// CacheBytes returns the SRAM cache budget in bytes (frames × page
// size).
func (t *Tier) CacheBytes() int64 {
	return int64(t.cfg.CacheFrames) * int64(t.cfg.PageSize)
}

// SRAMBytes returns the tier's total battery-backed SRAM footprint:
// directory plus cache.
func (t *Tier) SRAMBytes() int64 { return t.DirectoryBytes() + t.CacheBytes() }

// Counters returns a snapshot of the tier's activity counters.
func (t *Tier) Counters() Counters {
	return t.c
}

// ResetCounters zeroes the activity counters (after warm-up).
func (t *Tier) ResetCounters() {
	t.c = Counters{}
}

// InflightCount returns how many background writebacks are in flight —
// matched by the invariant checker against the scheduler's armed
// OpMapFlush completions.
func (t *Tier) InflightCount() int {
	return len(t.inflight)
}

// TearInflight tears every in-flight writeback target — the power
// failed with those programs physically incomplete. The controller's
// crash latch calls this alongside tearing the data flush targets;
// seedFor scrambles which bits of each page made it.
func (t *Tier) TearInflight(seedFor func(ppn uint32) uint64) {
	for _, idx := range sortedKeys(t.inflight) {
		ppn := t.inflight[idx]
		t.arr.TearInFlight(ppn, seedFor(ppn))
	}
}

// RecoverReport summarizes what a mount-time tier recovery pass found
// and repaired.
type RecoverReport struct {
	// InflightDiscarded counts in-flight writeback records resolved by
	// quarantining the torn new copy; each frame went back to dirty
	// (the battery-backed cache still holds the newest entries).
	InflightDiscarded int

	// CleanFinished reports that the battery-backed intent recorded an
	// interrupted translation clean, which recovery ran to completion.
	CleanFinished bool

	// CleanCopies counts live mapping pages the finished clean still
	// had to relocate.
	CleanCopies int

	// HalfErased counts translation segments whose erase was
	// interrupted, each repaired by erasing it again.
	HalfErased int

	// TornQuarantined counts torn mapping-page programs retired beyond
	// those covered above.
	TornQuarantined int

	// Orphans counts Valid translation pages no record claimed,
	// invalidated by the sweep.
	Orphans int
}

// Recover repairs the tier after a crash: in-flight writebacks are
// discarded (their targets were torn at the crash latch), an open
// clean intent is finished, half-erased translation segments are
// re-erased, stray torn pages quarantined, orphans swept, and the
// append cursor recomputed from the Flash state. The caller replays
// any ops Recover enqueued (the finished clean's copies and erase) on
// the simulated clock afterwards.
func (t *Tier) Recover() RecoverReport {
	var r RecoverReport

	// 1. Discard in-flight writebacks: the directory never saw the new
	// copies; the frames keep the newest entries and go back to dirty.
	for _, idx := range sortedKeys(t.inflight) {
		ppn := t.inflight[idx]
		switch t.arr.State(ppn) {
		case flash.Torn:
			t.arr.Quarantine(ppn)
		case flash.Valid:
			// Cannot happen today (the crash latch tears every
			// in-flight target), but a stale Valid copy drops the
			// same way.
			t.arr.Invalidate(ppn)
		default:
			// Free or Invalid: nothing physical to repair; the
			// record alone is discarded.
		}
		f := t.frames[idx]
		if f == nil {
			panic(fmt.Sprintf("maptier: in-flight writeback of mapping page %d has no frame", idx))
		}
		f.flushing = false
		f.dirtied = false
		if !f.dirty {
			f.dirty = true
			t.dirty++
		}
		r.InflightDiscarded++
	}
	t.inflight = make(map[uint32]uint32)

	// 2. Finish an interrupted translation clean from its intent: copy
	// the victim's remaining live pages into the destination's free
	// suffix, then erase the victim and close the rotation. A torn
	// page in the destination (the interrupted copy program) is
	// quarantined first so the free suffix stays contiguous.
	if t.intent.open {
		victim, dest := t.intent.victim, t.intent.dest
		r.TornQuarantined += t.quarantineSegment(dest)
		copied := 0
		if t.arr.HalfErased(victim) {
			// The crash hit the final erase itself: nothing left to
			// copy; re-erasing below completes the clean.
			t.arr.Erase(victim)
			r.HalfErased++
		} else {
			destCursor := t.segPages - t.freePages(dest)
			copied = t.copyOut(victim, dest, destCursor)
			eraseTime := t.arr.EraseTime(victim)
			t.arr.Erase(victim)
			if copied > 0 {
				per := t.arr.TransferTime() + t.arr.ProgramTime(dest)
				t.enq(&sched.Op{
					Kind:      stats.OpMapClean,
					Act:       stats.Cleaning,
					Remaining: per * sim.Duration(copied),
					Bank:      dest % t.cfg.Banks,
				})
			}
			t.enq(&sched.Op{
				Kind:      stats.OpMapErase,
				Act:       stats.Erasing,
				Remaining: eraseTime,
				Bank:      victim % t.cfg.Banks,
			})
		}
		t.finishRotation(victim, dest, copied)
		r.CleanFinished = true
		r.CleanCopies = copied
	}

	// 3. Re-erase any half-erased translation segment outside the
	// intent (a wholly-invalid segment whose erase was the crash
	// point), and quarantine stray torn pages everywhere else.
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		if t.arr.HalfErased(seg) {
			t.arr.Erase(seg)
			r.HalfErased++
			continue
		}
		r.TornQuarantined += t.quarantineSegment(seg)
	}

	// 4. Sweep orphans: Valid translation pages the directory does not
	// reference (in-flight records are gone by now).
	claimed := make(map[uint32]bool, t.pages)
	for _, ppn := range t.dir {
		claimed[ppn] = true
	}
	var orphans []uint32
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		t.arr.LivePages(seg, func(page int, idx uint32) {
			if ppn := uint32(seg*t.segPages + page); !claimed[ppn] {
				orphans = append(orphans, ppn)
			}
		})
	}
	for _, ppn := range orphans {
		t.arr.Invalidate(ppn)
	}
	r.Orphans = len(orphans)

	// 5. Recompute the append cursor from the Flash state (quarantined
	// tears consumed append slots; free pages form a suffix).
	t.cursor = t.segPages - t.freePages(t.active)
	return r
}

// quarantineSegment retires every torn page in a segment, returning
// how many.
func (t *Tier) quarantineSegment(seg int) int {
	if t.arr.SegmentTorn(seg) == 0 {
		return 0
	}
	n := 0
	for page := 0; page < t.segPages; page++ {
		ppn := uint32(seg*t.segPages + page)
		if t.arr.State(ppn) == flash.Torn {
			t.arr.Quarantine(ppn)
			n++
		}
	}
	return n
}

// CheckConsistency verifies the tier's structural invariants against
// the authoritative table:
//
//   - the directory covers every mapping page exactly once, each entry
//     a Valid translation page owned by that mapping page;
//   - every Valid translation page is claimed by the directory or an
//     in-flight writeback record (no leaks, no double claims);
//   - in-flight records correspond one-to-one with flushing frames;
//   - every cached mapping page matches the table entry for entry;
//   - clean cached pages and all uncached pages match their durable
//     Flash copy bit for bit;
//   - the cache respects its frame budget, the LRU list is exactly the
//     frame set, the dirty count is exact, the spare translation
//     segment is fully erased, and no clean intent is open.
func (t *Tier) CheckConsistency() error {
	if t.intent.open {
		return fmt.Errorf("maptier: clean intent still open (victim %d, dest %d)", t.intent.victim, t.intent.dest)
	}
	if len(t.frames) > t.cfg.CacheFrames {
		return fmt.Errorf("maptier: %d cached frames exceed the %d-frame budget", len(t.frames), t.cfg.CacheFrames)
	}
	if free, live, _ := t.arr.SegmentCounts(t.spare); free != t.segPages || live != 0 {
		return fmt.Errorf("maptier: spare translation segment %d not erased (%d free, %d live)", t.spare, free, live)
	}

	// Directory: exactly-once coverage, every entry Valid and owned.
	claimed := make(map[uint32]uint32, t.pages)
	for idx := 0; idx < t.pages; idx++ {
		ppn := t.dir[idx]
		if st := t.arr.State(ppn); st != flash.Valid {
			return fmt.Errorf("maptier: directory entry %d targets %v page %d", idx, st, ppn)
		}
		if owner := t.arr.Owner(ppn); owner != uint32(idx) {
			return fmt.Errorf("maptier: directory entry %d targets page %d owned by mapping page %d", idx, ppn, owner)
		}
		if prev, dup := claimed[ppn]; dup {
			return fmt.Errorf("maptier: translation page %d claimed by directory entries %d and %d", ppn, prev, idx)
		}
		claimed[ppn] = uint32(idx)
	}
	for _, idx := range sortedKeys(t.inflight) {
		ppn := t.inflight[idx]
		if st := t.arr.State(ppn); st != flash.Valid {
			return fmt.Errorf("maptier: in-flight writeback of mapping page %d targets %v page %d", idx, st, ppn)
		}
		if prev, dup := claimed[ppn]; dup {
			return fmt.Errorf("maptier: translation page %d claimed twice (mapping pages %d and %d)", ppn, prev, idx)
		}
		claimed[ppn] = idx
		f := t.frames[idx]
		if f == nil || !f.flushing {
			return fmt.Errorf("maptier: in-flight writeback of mapping page %d has no flushing frame", idx)
		}
	}
	flushing := 0
	for seg := 0; seg < t.arr.Geometry().Segments; seg++ {
		var leak error
		t.arr.LivePages(seg, func(page int, idx uint32) {
			ppn := uint32(seg*t.segPages + page)
			if _, ok := claimed[ppn]; !ok && leak == nil {
				leak = fmt.Errorf("maptier: live translation page %d (mapping page %d) claimed by no record", ppn, idx)
			}
		})
		if leak != nil {
			return leak
		}
	}

	// Content: cached frames mirror the table exactly; durable copies
	// match unless a newer cached version is dirty or in flight.
	expect := make([]byte, t.cfg.PageSize)
	for idx := 0; idx < t.pages; idx++ {
		t.serialize(uint32(idx), expect)
		f := t.frames[uint32(idx)]
		if f != nil {
			if f.flushing {
				flushing++
			}
			if !bytes.Equal(f.data, expect) {
				return fmt.Errorf("maptier: cached mapping page %d diverges from the page table", idx)
			}
			if f.dirty || f.flushing {
				continue // the durable copy may legitimately be stale
			}
		}
		if !bytes.Equal(t.arr.Page(t.dir[idx]), expect) {
			return fmt.Errorf("maptier: durable copy of mapping page %d diverges from the page table", idx)
		}
	}
	if flushing != len(t.inflight) {
		return fmt.Errorf("maptier: %d flushing frames but %d in-flight records", flushing, len(t.inflight))
	}

	// Cache bookkeeping: LRU list ≡ frame set, dirty count exact.
	dirty, listed := 0, 0
	seen := make(map[uint32]bool, len(t.frames))
	for f := t.head; f != nil; f = f.next {
		if seen[f.idx] {
			return fmt.Errorf("maptier: mapping page %d appears twice on the LRU list", f.idx)
		}
		seen[f.idx] = true
		listed++
		if t.frames[f.idx] != f {
			return fmt.Errorf("maptier: LRU frame for mapping page %d is not the cached frame", f.idx)
		}
		if f.dirty {
			dirty++
		}
	}
	if listed != len(t.frames) {
		return fmt.Errorf("maptier: LRU list holds %d frames, cache holds %d", listed, len(t.frames))
	}
	if dirty != t.dirty {
		return fmt.Errorf("maptier: dirty count %d, but %d frames are dirty", t.dirty, dirty)
	}
	return nil
}

// sortedKeys returns a map's mapping-page keys in ascending order —
// battery-backed record iteration must be deterministic.
func sortedKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
