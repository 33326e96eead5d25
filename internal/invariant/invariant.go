// Package invariant is the whole-device runtime invariant checker: a
// single entry point that verifies every structural property the eNVy
// design promises, across all layers at once. It subsumes the cleaner's
// CheckInvariants and the controller's CheckConsistency and extends
// them with the cross-layer properties neither layer can see alone.
//
// The checked invariants, with their source in the paper:
//
//   - Spare segment (§3.4): "eNVy must always keep one segment
//     completely erased" — delegated to cleaner.CheckInvariants, which
//     also verifies append-only allocation and partition membership.
//
//   - Page-table ↔ Flash bijection (§3.1, §3.3): every Valid physical
//     page is claimed by exactly one logical page — through the page
//     table, an in-flight flush reservation, or a transaction shadow —
//     and every mapping targets a Valid page owned by that logical
//     page. Copy-on-write must never leak or double-claim a page.
//
//   - SRAM buffer consistency (§3.2): a logical page is buffered if and
//     only if its page-table entry points into SRAM, and a frame marked
//     Flushing has exactly one in-flight flush reservation recording
//     where its Flash copy is being programmed. The buffer's per-home
//     flush-candidate lists are recounted against the FIFO: each holds
//     exactly its home's non-Flushing frames, oldest first.
//
//   - Wear conservation and bounded spread (§4.3): per-segment erase
//     counters sum to the array's independent total-erase tally, and
//     with wear leveling enabled every segment still accumulating wear
//     (erase count above its last swap mark) stays within WearThreshold
//     plus a small swap window of the youngest segment. Segments
//     retired by a wear swap hold cold data and rest at their
//     historical counts by design, so they are exempt until new wear
//     re-engages them.
//
//   - Timing determinism (§5): the background work cursor coincides
//     with the device clock between host operations, and simulated time
//     never moves backwards (checked across calls by Checker).
//
// CheckDevice is O(physical pages + logical pages) and allocates; it is
// meant for tests, fuzzing, and the -check flags of the command-line
// tools, not for per-operation use in benchmarks.
package invariant

import (
	"fmt"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/pagetable"
	"envy/internal/sim"
	"envy/internal/sram"
	"envy/internal/stats"
)

// wearSwapWindow is the slack allowed on top of WearThreshold for the
// erase-count spread: a wear swap triggers one flush after the spread
// exceeds the threshold and itself erases the two segments it rotates,
// so the spread legitimately reaches threshold+2 before collapsing; the
// rate limiter (one swap per regular clean) can defer the collapse by
// another erase or two.
const wearSwapWindow = 8

// claim records which logical page accounts for a live physical page,
// and through which record.
type claim struct {
	lpn uint32
	via string
}

// CheckDevice verifies every invariant of a full controller stack and
// returns the first violation found, or nil.
func CheckDevice(d *core.Device) error {
	// A crashed device is by definition not consistent — torn pages,
	// stranded reservations, an open cleaner intent. Recovery
	// (internal/recovery) repairs all of that and then calls CheckDevice
	// as its completion oracle; checking before recovery is an error in
	// the caller.
	if d.Crashed() {
		return fmt.Errorf("invariant: device is crashed; run recovery before checking")
	}
	if in := d.Engine().Intent(); in.Kind != cleaner.IntentNone {
		return fmt.Errorf("invariant: cleaner %v intent still open (src %d, dst %d)", in.Kind, in.Src, in.Dst)
	}
	// Layer-local invariants first: the cleaner's structural checks and
	// the controller's reachability pass (which subsume nothing below —
	// they establish the preconditions the cross-layer checks rely on).
	if err := d.CheckConsistency(); err != nil {
		return err
	}
	if err := checkSegmentCounts(d.Array()); err != nil {
		return err
	}
	if err := checkBijection(d); err != nil {
		return err
	}
	if err := checkBuffer(d); err != nil {
		return err
	}
	if err := checkWear(d.Array(), d.Engine()); err != nil {
		return err
	}
	if cur, now := d.BackgroundCursor(), d.Now(); cur != now {
		return fmt.Errorf("invariant: background cursor %v diverged from device clock %v", cur, now)
	}
	// Scheduler-side invariants: bank claims consistent with the queue,
	// and the armed flush completions in one-to-one correspondence with
	// the controller's in-flight flush reservations.
	if err := d.Scheduler().SelfCheck(); err != nil {
		return err
	}
	reservations := 0
	d.FlushTargets(func(lpn, ppn uint32) { reservations++ })
	if armed := d.Scheduler().PendingDone(stats.OpFlush); armed != reservations {
		return fmt.Errorf("invariant: %d armed flush completions but %d flush reservations", armed, reservations)
	}
	if armed, inflight := d.Scheduler().PendingDone(stats.OpDiffFlush), d.DiffInflightCount(); armed != inflight {
		return fmt.Errorf("invariant: %d armed diff-flush completions but %d in-flight diff units", armed, inflight)
	}
	// The §6 placement reads per-bank in-flight counters instead of
	// these records; they must recount exactly.
	if err := d.CheckInflightBanks(); err != nil {
		return err
	}
	// Mapping-tier invariants (two-tier page table only): the
	// translation region's segment counters recount exactly, every
	// cached mapping page matches the authoritative table, the
	// directory covers every mapping page exactly once, and the armed
	// mapping-writeback completions correspond one-to-one with the
	// tier's in-flight records.
	if mt := d.MapTier(); mt != nil {
		if err := checkSegmentCounts(mt.Array()); err != nil {
			return fmt.Errorf("translation region: %w", err)
		}
		if err := mt.CheckConsistency(); err != nil {
			return err
		}
		if armed, inflight := d.Scheduler().PendingDone(stats.OpMapFlush), mt.InflightCount(); armed != inflight {
			return fmt.Errorf("invariant: %d armed mapping-writeback completions but %d in-flight records", armed, inflight)
		}
	}
	return nil
}

// checkSegmentCounts recounts every segment's page states and compares
// them with the segment's cached free/live/invalid/torn counters. Torn
// pages and half-erased segments are crash artifacts: recovery must
// have quarantined or re-erased them all, so any that remain are a
// violation.
func checkSegmentCounts(arr *flash.Array) error {
	geo := arr.Geometry()
	for seg := 0; seg < geo.Segments; seg++ {
		var free, live, invalid, torn int
		for page := 0; page < geo.PagesPerSegment; page++ {
			switch arr.State(geo.PPN(seg, page)) {
			case flash.Free:
				free++
			case flash.Valid:
				live++
			case flash.Invalid:
				invalid++
			case flash.Torn:
				torn++
			default:
				return fmt.Errorf("invariant: segment %d page %d in unknown state", seg, page)
			}
		}
		cf, cl, ci := arr.SegmentCounts(seg)
		if free != cf || live != cl || invalid != ci || torn != arr.SegmentTorn(seg) {
			return fmt.Errorf("invariant: segment %d counts free=%d live=%d invalid=%d torn=%d, recount free=%d live=%d invalid=%d torn=%d",
				seg, cf, cl, ci, arr.SegmentTorn(seg), free, live, invalid, torn)
		}
		if torn != 0 {
			return fmt.Errorf("invariant: segment %d holds %d torn pages (unrecovered crash artifact)", seg, torn)
		}
		if arr.HalfErased(seg) {
			return fmt.Errorf("invariant: segment %d is half-erased (unrecovered crash artifact)", seg)
		}
	}
	return nil
}

// checkBijection verifies that live physical pages and the records that
// claim them (page table, flush reservations, transaction shadows) are
// in one-to-one correspondence.
func checkBijection(d *core.Device) error {
	arr, table := d.Array(), d.PageTable()
	claims := make(map[uint32]claim)
	add := func(ppn uint32, lpn uint32, via string) error {
		if prev, dup := claims[ppn]; dup {
			return fmt.Errorf("invariant: physical page %d claimed twice: by logical %d (%s) and logical %d (%s)",
				ppn, prev.lpn, prev.via, lpn, via)
		}
		if st := arr.State(ppn); st != flash.Valid {
			return fmt.Errorf("invariant: logical %d (%s) targets %v physical page %d", lpn, via, st, ppn)
		}
		if owner := arr.Owner(ppn); owner != lpn {
			return fmt.Errorf("invariant: logical %d (%s) targets physical page %d owned by %d", lpn, via, ppn, owner)
		}
		claims[ppn] = claim{lpn: lpn, via: via}
		return nil
	}

	var err error
	for lpn := 0; lpn < table.Len(); lpn++ {
		loc, ok := table.Lookup(uint32(lpn))
		if !ok || loc.InSRAM {
			continue
		}
		if err = add(loc.PPN, uint32(lpn), "page table"); err != nil {
			return err
		}
	}
	d.FlushTargets(func(lpn, ppn uint32) {
		if err == nil {
			err = add(ppn, lpn, "flush reservation")
		}
	})
	if err != nil {
		return err
	}
	d.Shadows(func(lpn uint32, hasFlash bool, ppn uint32) {
		if err == nil && hasFlash {
			err = add(ppn, lpn, "transaction shadow")
		}
	})
	if err != nil {
		return err
	}
	// Differential policy claims: in-flight and chained shared unit
	// pages are owned by the unit sentinel; a kept base is claimed by
	// the directory on behalf of its (buffered) logical page.
	d.DiffFlushTargets(func(ppn uint32, members []uint32) {
		if err == nil {
			err = add(ppn, flash.DiffOwner, "in-flight diff unit")
		}
	})
	if err != nil {
		return err
	}
	if dir := d.DiffDirectory(); dir != nil {
		dir.Units(func(unit uint32, members []uint32) {
			if err == nil {
				err = add(unit, flash.DiffOwner, "diff chain unit")
			}
		})
		if err != nil {
			return err
		}
		dir.Entries(func(lpn uint32, e *pagetable.DiffEntry) {
			if err == nil && e.KeptBase {
				err = add(e.Base, lpn, "kept diff base")
			}
		})
		if err != nil {
			return err
		}
	}

	// Every Valid page must be claimed (no leaks), and the live counters
	// must agree with the number of claims (no phantom live pages).
	geo := arr.Geometry()
	live := 0
	for seg := 0; seg < geo.Segments; seg++ {
		_, l, _ := arr.SegmentCounts(seg)
		live += l
		arr.LivePages(seg, func(page int, logical uint32) {
			ppn := geo.PPN(seg, page)
			if err == nil {
				if c, ok := claims[ppn]; !ok {
					err = fmt.Errorf("invariant: physical page %d (logical %d) is live but unclaimed", ppn, logical)
				} else if c.lpn != logical {
					err = fmt.Errorf("invariant: physical page %d owned by %d but claimed by %d (%s)", ppn, logical, c.lpn, c.via)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	if live != len(claims) {
		return fmt.Errorf("invariant: %d live physical pages but %d claims", live, len(claims))
	}
	return nil
}

// checkBuffer verifies the SRAM write buffer against the page table and
// the in-flight flush reservations.
func checkBuffer(d *core.Device) error {
	table, buf := d.PageTable(), d.Buffer()

	// Membership in an in-flight shared diff unit is the differential
	// policy's flush reservation for a frame.
	diffMembers := 0
	inUnit := make(map[uint32]bool)
	d.DiffFlushTargets(func(ppn uint32, members []uint32) {
		for _, lpn := range members {
			inUnit[lpn] = true
			diffMembers++
		}
	})

	// Frame side: every buffered frame is mapped into SRAM, and frames
	// marked Flushing carry exactly one reservation — a full-page flush
	// target or a diff-unit membership, never both.
	var err error
	flushing := 0
	buf.Frames(func(f *sram.Frame) bool {
		loc, ok := table.Lookup(f.Logical)
		switch {
		case !ok:
			err = fmt.Errorf("invariant: buffered page %d is unmapped", f.Logical)
		case !loc.InSRAM:
			err = fmt.Errorf("invariant: buffered page %d maps to flash page %d, not SRAM", f.Logical, loc.PPN)
		}
		if err != nil {
			return false
		}
		_, reservedFull := d.FlushTarget(f.Logical)
		reserved := reservedFull || inUnit[f.Logical]
		switch {
		case reservedFull && inUnit[f.Logical]:
			err = fmt.Errorf("invariant: page %d has both a full-page flush reservation and a diff-unit record in flight", f.Logical)
		case f.Flushing() && !reserved:
			err = fmt.Errorf("invariant: page %d is marked Flushing but has no flush reservation", f.Logical)
		case !f.Flushing() && reserved:
			err = fmt.Errorf("invariant: page %d has a flush reservation but is not marked Flushing", f.Logical)
		}
		if f.Flushing() {
			flushing++
		}
		if f.Dirtied && !f.Flushing() {
			err = fmt.Errorf("invariant: page %d is Dirtied but not Flushing", f.Logical)
		}
		return err == nil
	})
	if err != nil {
		return err
	}

	// Table side: every SRAM mapping has a frame. With the frame side
	// verified, equal counts make the correspondence a bijection.
	sramMapped := 0
	for lpn := 0; lpn < table.Len(); lpn++ {
		if loc, ok := table.Lookup(uint32(lpn)); ok && loc.InSRAM {
			sramMapped++
			if buf.Lookup(uint32(lpn)) == nil {
				return fmt.Errorf("invariant: page %d maps to SRAM but is not buffered", lpn)
			}
		}
	}
	if sramMapped != buf.Len() {
		return fmt.Errorf("invariant: %d SRAM mappings but %d buffered frames", sramMapped, buf.Len())
	}

	// Reservation side: no reservation without a frame (covered above
	// only for pages that are buffered).
	count := 0
	d.FlushTargets(func(lpn, ppn uint32) { count++ })
	if count+diffMembers != flushing {
		return fmt.Errorf("invariant: %d flush reservations and %d diff-unit records but %d Flushing frames",
			count, diffMembers, flushing)
	}

	// Index side: the per-home flush-candidate lists are derived from
	// the FIFO and the Flushing marks verified above; recount them.
	if err := buf.CheckIndex(); err != nil {
		return fmt.Errorf("invariant: flush-candidate index: %w", err)
	}
	return nil
}

// checkWear extracts the erase accounting from an array and its engine
// and verifies it with WearAccounting and WearSpreadBound.
func checkWear(arr *flash.Array, eng *cleaner.Engine) error {
	geo := arr.Geometry()
	counts := make([]int64, geo.Segments)
	marks := make([]int64, geo.Segments)
	for seg := 0; seg < geo.Segments; seg++ {
		counts[seg] = arr.EraseCount(seg)
		marks[seg] = eng.WearMark(seg)
	}
	if err := WearAccounting(counts, arr.TotalErases()); err != nil {
		return err
	}
	return WearSpreadBound(counts, marks, eng.Spare(), eng.Config().WearThreshold)
}

// WearAccounting verifies erase-count conservation: the per-segment
// cycle counters must sum to the array's independent total tally. It
// is exported separately from CheckDevice so the accounting logic can
// be exercised on corrupted inputs that no API path can produce.
func WearAccounting(perSegment []int64, total int64) error {
	if len(perSegment) == 0 {
		return fmt.Errorf("invariant: no segments to account wear for")
	}
	var sum int64
	for _, n := range perSegment {
		sum += n
	}
	if sum != total {
		return fmt.Errorf("invariant: per-segment erase counters sum to %d but the array performed %d erases", sum, total)
	}
	return nil
}

// WearSpreadBound verifies the wear-leveling guarantee (§4.3) on
// extracted state. A segment retired by a wear swap holds cold data
// and rests at its historical erase count — the raw max−min spread
// legitimately exceeds the threshold long-term — so the enforceable
// bound applies to segments still accumulating wear: any segment whose
// count exceeds its swap mark must stay within threshold+wearSwapWindow
// of the youngest non-spare segment. marks[i] must never exceed
// counts[i] (a mark records a past value of the counter), and the spare
// segment is excluded (it is mid-rotation). threshold <= 0 disables
// the spread bound but still validates the marks.
func WearSpreadBound(counts, marks []int64, spare int, threshold int64) error {
	if len(counts) != len(marks) {
		return fmt.Errorf("invariant: %d erase counts but %d wear marks", len(counts), len(marks))
	}
	young := int64(-1)
	for seg, n := range counts {
		if marks[seg] > n {
			return fmt.Errorf("invariant: segment %d wear mark %d exceeds its erase count %d", seg, marks[seg], n)
		}
		if seg == spare {
			continue
		}
		if young < 0 || n < young {
			young = n
		}
	}
	if threshold <= 0 {
		return nil
	}
	for seg, n := range counts {
		if seg == spare || n == marks[seg] {
			continue // spare is mid-rotation; retired segments rest by design
		}
		if n-young > threshold+wearSwapWindow {
			return fmt.Errorf("invariant: segment %d has %d erases, %d beyond the youngest segment's %d (threshold %d + swap window %d)",
				seg, n, n-young, young, threshold, wearSwapWindow)
		}
	}
	return nil
}

// CheckHarness verifies the invariants of a bufferless cleaning harness
// (the vehicle of the policy studies): the engine's structural checks,
// the harness's table↔Flash mapping, and the wear accounting.
func CheckHarness(h *cleaner.Harness) error {
	if err := h.Engine().CheckInvariants(); err != nil {
		return err
	}
	if err := h.CheckMapping(); err != nil {
		return err
	}
	if err := checkSegmentCounts(h.Array()); err != nil {
		return err
	}
	return checkWear(h.Array(), h.Engine())
}

// Checker adds cross-call checks to CheckDevice: simulated time must
// never move backwards between checks. The zero value is ready to use.
type Checker struct {
	started bool
	last    sim.Time
}

// Check runs CheckDevice and verifies the clock advanced monotonically
// since the previous Check.
func (c *Checker) Check(d *core.Device) error {
	now := d.Now()
	if c.started && now < c.last {
		return fmt.Errorf("invariant: device clock moved backwards: %v after %v", now, c.last)
	}
	c.started = true
	c.last = now
	return CheckDevice(d)
}
