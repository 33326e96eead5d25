package core

import (
	"fmt"
	"sort"

	"envy/internal/cleaner"
	"envy/internal/pagetable"
	"envy/internal/sim"
	"envy/internal/sram"
	"envy/internal/stats"
)

// The pluggable flush-policy layer: how a pending background flush
// task expands into Flash programs.
//
// The full-page policy is the paper's write-back path — every drain of
// a buffered page programs the whole page — extracted verbatim from
// the original expandFlush, so devices built with it are bit-identical
// to builds without the layer.
//
// The differential policy implements page-differential logging: when a
// buffered page has a kept Flash base (its old copy was deliberately
// not invalidated at copy-on-write) and the bytes written since the
// last flush form a small span, the drain programs just that span as a
// diff record. Records from several pages pack into one shared "unit"
// page, so one program retires many logical flushes; the page's image
// becomes base ∪ chain, merged on read misses and consolidated back
// into a single page by the cleaner. Chains are bounded: once a page
// has DiffMaxChain records, its next flush is promoted to a full page
// (which supersedes and drops the whole chain).

// FlushPolicyKind selects the write-back policy.
type FlushPolicyKind int

const (
	// FullPageFlush programs whole pages on every drain (the paper's
	// path; the default).
	FullPageFlush FlushPolicyKind = iota

	// DiffFlush programs per-page dirty spans as diff records packed
	// into shared unit pages (page-differential logging).
	DiffFlush
)

// flushPolicy is the pluggable expansion step. Both implementations
// consult the same frame-selection helper (selectFlushFrame); they
// differ in what they program for the chosen frame.
type flushPolicy interface {
	expandOne(d *Device) bool
}

type fullPagePolicy struct{}

func (fullPagePolicy) expandOne(d *Device) bool {
	d.flushPending--
	frame := d.selectFlushFrame()
	if frame == nil {
		return false
	}
	return d.expandFullPage(frame)
}

type diffPolicy struct{}

func (diffPolicy) expandOne(d *Device) bool {
	d.flushPending--
	frame := d.selectFlushFrame()
	if frame == nil {
		return false
	}
	if !d.diffEligible(frame) {
		// Promotion-to-full-page rule: a page whose chain is at the
		// bound flushes as a full page, superseding the chain.
		if e := d.dir.Entry(frame.Logical); e != nil && e.KeptBase &&
			len(e.Chain) >= d.cfg.DiffMaxChain && !d.inTxn {
			d.counters.DiffPromotions++
		}
		return d.expandFullPage(frame)
	}
	return d.expandDiff(frame)
}

// diffMember is one logical page's record in an in-flight unit
// program: where its diff record will sit once the program completes.
type diffMember struct {
	lpn uint32
	loc pagetable.DiffLoc
}

// diffUnit is one in-flight shared unit program. Like flushPPN, the
// set of these is battery-backed recovery state; units are keyed by a
// stable sequence number because the cleaner may relocate the unit's
// physical page mid-program.
type diffUnit struct {
	ppn     uint32
	members []diffMember
}

// sortedDiffSeqs returns the in-flight unit keys in start order, so
// every iteration over them is deterministic.
func sortedDiffSeqs(m map[uint64]*diffUnit) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// inflightFlushes counts every flush program in flight, full-page and
// unit alike — the §6 pipeline depth the bank steering works against.
func (d *Device) inflightFlushes() int {
	return len(d.flushPPN) + len(d.diffInflight)
}

// diffAgeWindow is the recency horizon of the diff path, in segments'
// worth of host flush programs. A base that old has fallen behind the
// log head; chaining onto it would pin a live page in a decaying
// segment (see diffEligible).
const diffAgeWindow = 16

// diffEligible reports whether a frame's next flush may be a diff
// record: no transaction is open (transactional flush cancellation
// understands full-page programs only), the page has a kept Flash base
// to diff against that is still young, its chain has room under the
// promotion bound, and the bytes written since the last flush form a
// span small enough that a record (header + span) saves programming
// over a full page.
func (d *Device) diffEligible(f *sram.Frame) bool {
	if d.inTxn {
		return false
	}
	// Chain units are live pages the logical footprint doesn't account
	// for; unbounded they overfill the array and strand the cleaner.
	// Cap them at half of the physical slack (capacity minus the
	// spare segment minus the logical pages) — at the cap drains fall
	// back to full pages, which supersede chains and free their units.
	slack := d.cfg.Geometry.Pages() - d.cfg.Geometry.PagesPerSegment - d.cfg.Cleaning.LogicalPages
	if 2*(d.dir.UnitCount()+len(d.diffInflight)) >= slack {
		return false
	}
	e := d.dir.Entry(f.Logical)
	if e == nil || !e.KeptBase {
		return false
	}
	// The age gate. A full-page flush moves the page to the log head
	// and invalidates its old copy, so under the full-page policy old
	// segments decay toward empty and cleaning stays cheap. A diff
	// record instead leaves the page live at its base — chain onto a
	// stale base and the cleaner inherits a segment that never drains.
	// Gate on the base segment's last host-flush stamp: recently
	// re-written (hot) pages chain, pages surfacing from the cold tail
	// migrate forward as full pages.
	seg, _ := d.cfg.Geometry.Split(e.Base)
	if d.flushStamp-d.segStamp[seg] > diffAgeWindow*int64(d.cfg.Geometry.PagesPerSegment) {
		return false
	}
	if len(e.Chain) >= d.cfg.DiffMaxChain {
		return false
	}
	lo, hi := f.DirtySpan()
	if lo >= hi {
		return false
	}
	span := hi - lo
	ps := d.cfg.Geometry.PageSize
	if span*2 > ps {
		return false // a diff over half a page saves too little
	}
	return pagetable.DiffUnitHeader+pagetable.DiffRecHeader+span <= ps
}

// stampFlush advances the host-flush clock and marks ppn's segment
// current — the recency the diff path's age gate tests. A no-op under
// the full-page policy.
func (d *Device) stampFlush(ppn uint32) {
	if d.segStamp == nil {
		return
	}
	seg, _ := d.cfg.Geometry.Split(ppn)
	d.flushStamp++
	d.segStamp[seg] = d.flushStamp
}

// expandDiff packs the chosen frame's dirty span — plus every other
// eligible frame's, oldest first, while records fit — into one shared
// unit page and programs it with a single Flash operation. Frames are
// marked Flushing only after the program succeeds, so a crash inside
// the engine (the unit program or cleaning on its behalf) leaves the
// frames untouched and the torn, unclaimed unit to the mount-time
// sweeps.
func (d *Device) expandDiff(first *sram.Frame) bool {
	ps := d.cfg.Geometry.PageSize
	need := func(f *sram.Frame) int {
		lo, hi := f.DirtySpan()
		return pagetable.DiffRecHeader + (hi - lo)
	}
	members := []*sram.Frame{first}
	used := pagetable.DiffUnitHeader + need(first)
	d.buf.Frames(func(f *sram.Frame) bool {
		if f == first || f.Flushing() || !d.diffEligible(f) {
			return true
		}
		if n := need(f); used+n <= ps {
			members = append(members, f)
			used += n
		}
		// A record is a header plus at least one byte: once the unit
		// cannot hold even that, no later frame can join it.
		return used+pagetable.DiffRecHeader < ps
	})

	var payload []byte
	if !d.cfg.Dataless {
		payload = make([]byte, ps)
		payload[0] = byte(len(members))
		payload[1] = byte(len(members) >> 8)
	}
	locs := make([]pagetable.DiffLoc, len(members))
	pos := pagetable.DiffUnitHeader
	for i, f := range members {
		lo, hi := f.DirtySpan()
		if payload != nil {
			lpn := f.Logical
			payload[pos+0] = byte(lpn)
			payload[pos+1] = byte(lpn >> 8)
			payload[pos+2] = byte(lpn >> 16)
			payload[pos+3] = byte(lpn >> 24)
			payload[pos+4] = byte(lo)
			payload[pos+5] = byte(lo >> 8)
			payload[pos+6] = byte(hi - lo)
			payload[pos+7] = byte((hi - lo) >> 8)
			copy(payload[pos+pagetable.DiffRecHeader:], f.Data[lo:hi])
		}
		locs[i] = pagetable.DiffLoc{
			RecOff:  uint16(pos + pagetable.DiffRecHeader),
			PageOff: uint16(lo),
			Len:     uint16(hi - lo),
		}
		pos += pagetable.DiffRecHeader + (hi - lo)
	}

	var ppn uint32
	var work []cleaner.Step
	if d.cfg.ParallelFlush > 1 {
		depth := 1
		if d.inflightFlushes() >= d.cfg.ParallelFlush {
			depth = 2
		}
		avoid := func(bank int) bool { return d.bankOccupied(bank, depth) }
		ppn, work = d.eng.FlushUnit(first.Home, payload, pos, avoid)
	} else {
		ppn, work = d.eng.FlushUnit(first.Home, payload, pos, nil)
	}

	d.stampFlush(ppn)
	u := &diffUnit{ppn: ppn, members: make([]diffMember, len(members))}
	for i, f := range members {
		locs[i].Unit = ppn
		u.members[i] = diffMember{lpn: f.Logical, loc: locs[i]}
		d.buf.BeginFlush(f)
	}
	d.diffSeq++
	seq := d.diffSeq
	d.diffInflight[seq] = u
	d.inflightOn(ppn, +1)
	d.counters.Flushes += int64(len(members))
	d.counters.DiffUnitPrograms++
	d.counters.DiffRecordsWritten += int64(len(members))

	for _, st := range work {
		d.enqueueStep(st)
	}
	destSeg, _ := d.cfg.Geometry.Split(ppn)
	op := d.sched.GetOp()
	op.Kind = stats.OpDiffFlush
	op.Act = stats.Flushing
	op.Remaining = d.arr.TransferTime() + d.arr.ProgramTime(destSeg)
	op.Bank = d.cfg.Geometry.BankOf(destSeg)
	// seq is 64-bit, wider than the 32-bit Tag, so this op keeps its
	// closure; diff units are batched (one op per ~8 members), so the
	// allocation is off the per-page hot path anyway.
	op.Done = func() { d.finishDiffFlush(seq) }
	d.sched.Enqueue(op)
	return true
}

// finishDiffFlush completes a shared unit program. Each member whose
// frame was not re-written mid-program gets its record appended to its
// chain and its table entry flipped back to the kept base; a re-written
// (Dirtied) member's record is stale on arrival, so its frame simply
// requeues — its dirty span, which now covers the new writes too, rides
// into the next flush. A unit whose every record arrived stale is dead
// on arrival and is invalidated.
func (d *Device) finishDiffFlush(seq uint64) {
	u := d.diffInflight[seq]
	if u == nil {
		panic(fmt.Sprintf("core: finishing diff unit %d with no record", seq))
	}
	delete(d.diffInflight, seq)
	d.inflightOn(u.ppn, -1)
	live := 0
	for _, m := range u.members {
		frame := d.buf.Lookup(m.lpn)
		if frame == nil || !frame.Flushing() {
			panic(fmt.Sprintf("core: finishing diff record of page %d with no flushing frame", m.lpn))
		}
		if frame.Dirtied {
			d.buf.Requeue(frame)
			continue
		}
		d.dir.Append(m.lpn, m.loc)
		d.setFlash(m.lpn, d.dir.Entry(m.lpn).Base)
		d.dir.SetKeptBase(m.lpn, false)
		frame.ClearDirty()
		d.buf.Remove(frame)
		live++
	}
	if live == 0 {
		d.arr.Invalidate(u.ppn)
	}
	if d.buf.Len() > d.lowWater() && d.flushPending == 0 {
		d.flushPending++
	}
	d.tierDrain()
}

// mergedPage returns a page's full current Flash image — the base
// payload with its diff chain applied, oldest record first — plus the
// extra read latency of fetching the chain's unit pages. Without a
// chain (or under the full-page policy) the live base payload is
// returned as-is with no cost, so the fast path is untouched.
func (d *Device) mergedPage(lpn, ppn uint32) ([]byte, sim.Duration) {
	base := d.arr.Page(ppn)
	if d.dir == nil {
		return base, 0
	}
	e := d.dir.Entry(lpn)
	if e == nil || e.Base != ppn || len(e.Chain) == 0 {
		return base, 0
	}
	var out []byte
	if base != nil {
		out = append([]byte(nil), base...)
	}
	var lat sim.Duration
	for _, lc := range e.Chain {
		lat += d.arr.ReadTime()
		if out == nil {
			continue
		}
		if data := d.arr.Page(lc.Unit); data != nil {
			copy(out[lc.PageOff:int(lc.PageOff)+int(lc.Len)], data[lc.RecOff:int(lc.RecOff)+int(lc.Len)])
		}
	}
	d.counters.DiffMerges++
	return out, lat
}

// applyChainWindow overlays a page's diff records onto dst, which
// holds the base image's bytes [off, off+len(dst)) — the word-sized
// host read path. The directory knows each record's byte range, so
// only unit pages whose record overlaps the window are read (and
// charged). Records apply oldest first; their absolute ranges make
// application idempotent.
func (d *Device) applyChainWindow(e *pagetable.DiffEntry, dst []byte, off int) sim.Duration {
	var lat sim.Duration
	applied := false
	end := off + len(dst)
	for _, lc := range e.Chain {
		lo, hi := int(lc.PageOff), int(lc.PageOff)+int(lc.Len)
		if hi <= off || lo >= end {
			continue
		}
		lat += d.arr.ReadTime()
		applied = true
		s, t := lo, hi
		if s < off {
			s = off
		}
		if t > end {
			t = end
		}
		if data := d.arr.Page(lc.Unit); data != nil {
			copy(dst[s-off:t-off], data[int(lc.RecOff)+(s-lo):int(lc.RecOff)+(t-lo)])
		}
	}
	if applied {
		d.counters.DiffMerges++
	}
	return lat
}

// readInstall finishes a one-word host read of a chained page by
// consolidating it into SRAM (differential policy only): the accrued
// read cost plus the wide transfer is charged, then the merged
// base∪chain image is pulled into a frame through the ordinary
// copy-on-write — marked fully dirty, so its next drain is a full-page
// flush that supersedes base and chain. Repeat reads of the page hit
// SRAM at buffer speed; the chain's unit references die when the
// consolidating flush lands.
func (d *Device) readInstall(page uint32, bank int, lat sim.Duration, p []byte, off int) sim.Duration {
	lat += d.arr.TransferTime()
	d.completeAccessOn(bank, lat, stats.Reading)
	t0 := d.now
	frame := d.copyOnWrite(page) // chain merge charged inside
	frame.MarkDirty(0, d.cfg.Geometry.PageSize)
	d.maybeScheduleFlush()
	if frame.Data != nil {
		copy(p, frame.Data[off:])
	}
	lat += d.now.Sub(t0)
	d.counters.HostReads++
	d.readLat.Record(lat)
	return lat
}

// dropEntry removes a page's diff entry: unit pages whose last record
// died are invalidated, as is the base if the directory held its
// claim. A no-op without an entry (or under the full-page policy).
func (d *Device) dropEntry(lpn uint32) {
	if d.dir == nil {
		return
	}
	dead, base, kept := d.dir.Drop(lpn)
	for _, u := range dead {
		d.arr.Invalidate(u)
	}
	if kept {
		d.arr.Invalidate(base)
	}
}

// shadowHoldsBase reports whether a transaction shadow at ppn is
// holding the liveness claim on lpn's chained diff base.
func (d *Device) shadowHoldsBase(lpn, ppn uint32) bool {
	e := d.dir.Entry(lpn)
	return e != nil && e.Base == ppn
}

// commitShadowBase resolves a committed transaction's Flash shadow.
// Under the full-page policy (and for unchained pages) the shadow
// space is simply reclaimed. Under the differential policy a shadow
// that holds a chained page's base hands the claim back to the
// directory when the page is still buffered — the base stays alive as
// the page's diff target, exactly as a non-transactional
// copy-on-write would have kept it — and otherwise (the page's
// transactional image reached Flash as a full page) the stale chain
// dies with the base.
func (d *Device) commitShadowBase(lpn, ppn uint32) {
	if d.dir != nil {
		if e := d.dir.Entry(lpn); e != nil && e.Base == ppn {
			if loc, ok := d.table.Lookup(lpn); ok && loc.InSRAM {
				d.dir.SetKeptBase(lpn, true)
				return
			}
			d.dropEntry(lpn) // KeptBase is false: the base is ours to drop
		}
	}
	d.arr.Invalidate(ppn)
}

// consolidateForClean is the cleaner's merge hook (differential policy
// only): when the live page being copied out of a victim segment is a
// table-mapped chained base, the copy programs the merged base∪chain
// image and the now-redundant chain is retired — cleaning consolidates
// chains instead of relocating them. Bases claimed by a flush
// reservation, a transaction shadow, or the directory itself (the page
// is buffered) relocate unmerged: their chains stay live and follow
// via remap.
func (d *Device) consolidateForClean(logical, oldPPN uint32) ([]byte, func(newPPN uint32), bool) {
	e := d.dir.Entry(logical)
	if e == nil || e.Base != oldPPN || len(e.Chain) == 0 {
		return nil, nil, false
	}
	if loc, ok := d.table.Lookup(logical); !ok || loc.InSRAM || loc.PPN != oldPPN {
		return nil, nil, false
	}
	payload, _ := d.mergedPage(logical, oldPPN)
	after := func(uint32) {
		for _, u := range d.dir.DropChain(logical) {
			d.arr.Invalidate(u)
		}
	}
	return payload, after, true
}

// DiffDirectory exposes the differential policy's battery-backed
// base + chain directory for inspection (invariant checking, SRAM
// accounting); nil under the full-page policy. Callers must not
// mutate it.
func (d *Device) DiffDirectory() *pagetable.DiffDirectory { return d.dir }

// DiffFlushTargets iterates the in-flight shared unit programs in
// start order: the unit's physical page and its member logical pages.
func (d *Device) DiffFlushTargets(fn func(ppn uint32, members []uint32)) {
	for _, seq := range sortedDiffSeqs(d.diffInflight) {
		u := d.diffInflight[seq]
		ms := make([]uint32, len(u.members))
		for i, m := range u.members {
			ms[i] = m.lpn
		}
		fn(u.ppn, ms)
	}
}

// DiffInflightCount returns the number of in-flight unit programs.
func (d *Device) DiffInflightCount() int { return len(d.diffInflight) }
