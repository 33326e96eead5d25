package core

import (
	"fmt"

	"envy/internal/flash"
	"envy/internal/maptier"
	"envy/internal/pagetable"
	"envy/internal/sram"
)

// Controller-level repair primitives for the mount-time recovery path
// (internal/recovery). Everything here reads only battery-backed state
// — the SRAM buffer, the page table, the flush reservations, the
// transaction shadows — plus the Flash array itself, which is exactly
// what survives a power failure. The volatile MMU was rebuilt empty
// when the crash latched.

// RecoverFlushes resolves every in-flight flush reservation after a
// crash. A reservation records where a buffered page's Flash copy was
// being programmed; at the moment of the failure that program either
// tore (the page is Torn) or — in eager-simulation terms — had
// completed its mutation with only its timed step outstanding, in
// which case CrashPowerCycle tore it too. The program is therefore
// never silently "finished": the buffered SRAM frame is the page's
// only full copy, the torn target is quarantined, and the frame goes
// back to being an ordinary dirty frame awaiting a fresh flush.
// Returns how many reservations were discarded this way.
func (d *Device) RecoverFlushes() (discarded int, err error) {
	if !d.crashed {
		return 0, fmt.Errorf("core: RecoverFlushes on a device that is not crashed")
	}
	for _, lpn := range sortedKeys(d.flushPPN) {
		ppn := d.flushPPN[lpn]
		frame := d.buf.Lookup(lpn)
		if frame == nil {
			return discarded, fmt.Errorf("core: flush reservation for page %d has no buffered frame", lpn)
		}
		delete(d.flushPPN, lpn)
		d.inflightOn(ppn, -1)
		switch st := d.arr.State(ppn); st {
		case flash.Torn:
			d.arr.Quarantine(ppn)
		case flash.Valid:
			// Cannot happen today (latchCrash tears every reservation),
			// but a Valid stale copy is safe to drop the same way.
			d.arr.Invalidate(ppn)
		case flash.Invalid:
			// Already quarantined by an earlier recovery step.
		default:
			return discarded, fmt.Errorf("core: flush reservation for page %d targets %v page %d", lpn, st, ppn)
		}
		d.buf.AbortFlush(frame)
		discarded++
	}
	return discarded, nil
}

// RecoverDiffFlushes resolves the differential policy's in-flight
// shared unit programs after a crash, the diff-record analogue of
// RecoverFlushes: every member's SRAM frame is the page's current copy
// (its record was never appended to the chain), so the torn unit is
// quarantined, the frames go back to being ordinary dirty frames, and
// their retained dirty spans re-program the records on the next drain.
// It then reconstructs the directory's claims: a chain whose base no
// battery-backed record claims — the artifact of a crash inside the
// copy-on-write keep window — is dropped (dead units invalidated; the
// orphaned base is left to SweepOrphans), and a base both the table
// and the directory claim is handed to the table. Returns the number
// of unit programs discarded and entries dropped.
func (d *Device) RecoverDiffFlushes() (discarded, dropped int, err error) {
	if !d.crashed {
		return 0, 0, fmt.Errorf("core: RecoverDiffFlushes on a device that is not crashed")
	}
	for _, seq := range sortedDiffSeqs(d.diffInflight) {
		u := d.diffInflight[seq]
		delete(d.diffInflight, seq)
		d.inflightOn(u.ppn, -1)
		for _, m := range u.members {
			frame := d.buf.Lookup(m.lpn)
			if frame == nil {
				return discarded, dropped, fmt.Errorf("core: diff record for page %d has no buffered frame", m.lpn)
			}
			d.buf.AbortFlush(frame)
		}
		switch st := d.arr.State(u.ppn); st {
		case flash.Torn:
			d.arr.Quarantine(u.ppn)
		case flash.Valid:
			d.arr.Invalidate(u.ppn)
		case flash.Invalid:
			// Already quarantined by an earlier recovery step.
		default:
			return discarded, dropped, fmt.Errorf("core: diff unit reservation targets %v page %d", st, u.ppn)
		}
		discarded++
	}
	if d.dir == nil {
		return discarded, dropped, nil
	}
	var fix, drop []uint32
	d.dir.Entries(func(lpn uint32, e *pagetable.DiffEntry) {
		loc, ok := d.table.Lookup(lpn)
		switch {
		case e.KeptBase && ok && !loc.InSRAM && loc.PPN == e.Base:
			fix = append(fix, lpn)
		case !e.KeptBase && (!ok || loc.InSRAM):
			if sh, shOk := d.shadows[lpn]; !shOk || !sh.hasFlash || sh.ppn != e.Base {
				drop = append(drop, lpn)
			}
		}
	})
	for _, lpn := range fix {
		d.dir.SetKeptBase(lpn, false)
	}
	for _, lpn := range drop {
		d.dropEntry(lpn)
		dropped++
	}
	return discarded, dropped, nil
}

// ClearStrayFlushing clears Flushing/Dirtied flags on frames that have
// no reservation — the artifact of a crash after expandFlush marked
// the frame but before the cleaner returned a target (the flush
// program itself, or cleaning on its behalf, was the crash point).
// Returns how many frames were repaired.
func (d *Device) ClearStrayFlushing() int {
	cleared := 0
	d.buf.Frames(func(f *sram.Frame) bool {
		if _, reserved := d.flushPPN[f.Logical]; f.Flushing() && !reserved {
			d.buf.AbortFlush(f)
			cleared++
		}
		return true
	})
	return cleared
}

// SweepOrphans invalidates live Flash pages that no battery-backed
// record claims: the artifact of a power failure inside the §3.1
// retarget window (the table already points at the new copy, the old
// one was never invalidated). Claims are the page table, the flush
// reservations, and the open transaction's Flash shadows. Returns how
// many orphans were reclaimed.
func (d *Device) SweepOrphans() int {
	claimed := make(map[uint32]bool)
	for lpn := 0; lpn < d.table.Len(); lpn++ {
		if loc, ok := d.table.Lookup(uint32(lpn)); ok && !loc.InSRAM {
			claimed[loc.PPN] = true
		}
	}
	for _, ppn := range d.flushPPN {
		claimed[ppn] = true
	}
	for _, sh := range d.shadows {
		if sh.hasFlash {
			claimed[sh.ppn] = true
		}
	}
	for _, u := range d.diffInflight {
		claimed[u.ppn] = true
	}
	if d.dir != nil {
		d.dir.Entries(func(lpn uint32, e *pagetable.DiffEntry) {
			if e.KeptBase {
				claimed[e.Base] = true
			}
		})
		d.dir.Units(func(unit uint32, members []uint32) {
			claimed[unit] = true
		})
	}
	geo := d.cfg.Geometry
	var orphans []uint32
	for seg := 0; seg < geo.Segments; seg++ {
		d.arr.LivePages(seg, func(page int, logical uint32) {
			if ppn := geo.PPN(seg, page); !claimed[ppn] {
				orphans = append(orphans, ppn)
			}
		})
	}
	for _, ppn := range orphans {
		d.arr.Invalidate(ppn)
	}
	return len(orphans)
}

// QuarantineTorn quarantines every Torn page outside half-erased
// segments (those are repaired by re-erasing, not page by page).
// Returns how many pages were quarantined.
func (d *Device) QuarantineTorn() int {
	geo := d.cfg.Geometry
	n := 0
	for seg := 0; seg < geo.Segments; seg++ {
		if d.arr.HalfErased(seg) {
			continue
		}
		for page := 0; page < geo.PagesPerSegment; page++ {
			if ppn := geo.PPN(seg, page); d.arr.State(ppn) == flash.Torn {
				d.arr.Quarantine(ppn)
				n++
			}
		}
	}
	return n
}

// RecoverMapTier repairs the two-tier page table after a crash —
// in-flight writebacks discarded, an interrupted translation clean
// finished from its intent, half-erased translation segments
// re-erased, torn mapping-page programs quarantined, orphans swept —
// and replays the repair's background ops (the finished clean's copies
// and erase) on the simulated clock, exactly as ReplaySteps does for
// the data cleaner. Zero report on flat-table devices.
func (d *Device) RecoverMapTier() (maptier.RecoverReport, error) {
	if d.mt == nil {
		return maptier.RecoverReport{}, nil
	}
	if !d.crashed {
		return maptier.RecoverReport{}, fmt.Errorf("core: RecoverMapTier on a device that is not crashed")
	}
	r := d.mt.Recover()
	for d.sched.Len() > 0 {
		need, ok := d.sched.NextCompletionIn()
		if !ok {
			return r, fmt.Errorf("core: replayed mapping-tier repairs are not runnable")
		}
		d.sched.Run(d.now, d.sched.Cursor().Add(need))
	}
	if c := d.sched.Cursor(); c > d.now {
		d.now = c
	}
	return r, nil
}

// ClearCrashed ends the crashed state once recovery has repaired the
// structures; the injector that fired stays spent. The background
// queue is empty and the clock holds where the power failed.
func (d *Device) ClearCrashed() {
	d.crashed = false
}
