package core

import (
	"fmt"

	"envy/internal/cleaner"
	"envy/internal/sim"
	"envy/internal/sram"
	"envy/internal/stats"
)

// Background work: draining the SRAM write buffer to Flash, and the
// cleaning and erasing the drain forces. The timed execution lives in
// internal/sched; this file translates controller events (buffer
// crossing the high-water mark, a flush completing, cleaner work
// returned by the engine) into scheduler operations.

// flushInFlight reports whether at least one flush task is currently
// expanded into scheduled operations — a full-page program or a
// shared diff-unit program.
func (d *Device) flushInFlight() bool {
	return len(d.flushPPN) > 0 || len(d.diffInflight) > 0
}

// highWater and lowWater are the flush trigger and drain floor in
// pages.
func (d *Device) highWater() int {
	return int(d.cfg.FlushHighWater * float64(d.buf.Cap()))
}

func (d *Device) lowWater() int {
	return int(d.cfg.FlushLowWater * float64(d.buf.Cap()))
}

// drainFloor is the buffer level at which a flush burst stops topping
// up. Single-outstanding hosts drain to the low-water mark: flushing
// steals host time, so the hysteresis batches it. With multiple
// outstanding requests flushes run through host windows for free, and
// draining deep only evicts hot pages before they are rewritten —
// costing the write absorption §5.2 depends on — so the burst stops at
// the high-water mark instead, keeping the buffer as full as it can be.
func (d *Device) drainFloor() int {
	if d.hostConc > 1 {
		return d.highWater()
	}
	return d.lowWater()
}

// maybeScheduleFlush queues a background flush when the buffer has
// filled to the high-water mark (§3.2: "pages are flushed from the
// buffer when their number exceeds a certain threshold").
func (d *Device) maybeScheduleFlush() {
	if d.buf.Len() >= d.highWater() && d.flushPending == 0 && !d.flushInFlight() {
		d.flushPending++
	}
}

// expandPending is the scheduler's Expand hook: it turns pending flush
// tasks into scheduled operations whenever the running set has a free
// lane. With ParallelFlush above 1 it also tops the pipeline up to the
// configured depth while the buffer is draining, so consecutive flush
// programs land on distinct banks and genuinely overlap (§6) — per-bank
// queue parallelism, not divided constants. Reports whether any flush
// was started.
func (d *Device) expandPending() bool {
	progress := false
	for d.flushPending > 0 {
		if d.expandFlush() {
			progress = true
		}
	}
	// Keeping a full bank-set of flushes in flight beyond the lane count
	// means that even when several targets share a bank (or a bank is
	// tied up erasing), the picker still finds enough distinct banks to
	// fill every flush lane.
	for d.cfg.ParallelFlush > 1 &&
		d.flushInFlight() && d.inflightFlushes() < d.cfg.ParallelFlush+d.cfg.Geometry.Banks &&
		d.buf.Len() > d.drainFloor() {
		d.flushPending++
		if !d.expandFlush() {
			break
		}
		progress = true
	}
	return progress
}

// expandFlush turns one pending flush task into scheduled operations
// via the configured write-back policy. The space bookkeeping happens
// eagerly (the cleaner may clean segments and relocate pages); the
// returned work is then played out on the clock by the scheduler.
// Reports whether a flush was actually started.
func (d *Device) expandFlush() bool { return d.policy.expandOne(d) }

// selectFlushFrame picks the next frame to flush — the selection step
// both write-back policies consult. When flush programs may overlap
// (§6) it is the oldest flushable frame whose home the placement test
// accepts: with the hybrid policy each partition keeps its own active
// segment, so a buffer holding a mix of homes can feed every bank at
// once — this is where the per-bank queue overlap actually comes from.
// The buffer's flush-candidate index answers that from one list head
// per home, judging each home at most once. Plain FIFO (Oldest) is the
// choice at depth 1 and the fallback when every home collides or is
// unpredictable (progress beats placement).
func (d *Device) selectFlushFrame() *sram.Frame {
	if d.cfg.ParallelFlush > 1 {
		if frame := d.buf.OldestWhere(d.flushHomeFree); frame != nil {
			return frame
		}
	}
	return d.buf.Oldest()
}

// flushHomeFree is the placement test of the bank-aware pick: a flush
// of a page from home would land on a bank that no in-flight flush is
// already programming and no running operation occupies. It reads the
// engine and the claims without changing them, so the verdict holds
// for every frame of the home within one pick.
func (d *Device) flushHomeFree(home int) bool {
	seg := d.eng.PeekFlushSegment(home)
	if seg < 0 {
		return false
	}
	bank := d.cfg.Geometry.BankOf(seg)
	return d.inflightBank[bank] == 0 && !(d.hostConc == 1 && d.banks.Busy(bank))
}

// expandFullPage programs one whole buffered page — the full-page
// policy's expansion, and the differential policy's promotion path.
func (d *Device) expandFullPage(frame *sram.Frame) bool {
	d.buf.BeginFlush(frame)
	lpn := frame.Logical
	var ppn uint32
	var work []cleaner.Step
	if d.cfg.ParallelFlush > 1 {
		depth := 1
		if d.inflightFlushes() >= d.cfg.ParallelFlush {
			depth = 2
		}
		avoid := func(bank int) bool { return d.bankOccupied(bank, depth) }
		ppn, work = d.eng.FlushAvoiding(lpn, frame.Home, frame.Data, avoid)
	} else {
		ppn, work = d.eng.Flush(lpn, frame.Home, frame.Data)
	}
	d.flushPPN[lpn] = ppn
	d.inflightOn(ppn, +1)
	d.stampFlush(ppn)

	for _, st := range work {
		d.enqueueStep(st)
	}
	destSeg, _ := d.cfg.Geometry.Split(ppn)
	op := d.sched.GetOp()
	op.Kind = stats.OpFlush
	op.Act = stats.Flushing
	op.Remaining = d.arr.TransferTime() + d.arr.ProgramTime(destSeg)
	op.Bank = d.cfg.Geometry.BankOf(destSeg)
	op.Tag = lpn
	op.Tagged = true
	// The shared method value plus the lpn riding in Tag replace the
	// per-flush closure this hot path used to allocate.
	op.DonePage = d.finishFlushFn
	d.sched.Enqueue(op)
	return true
}

// inflightOn adjusts the in-flight flush count of the bank owning ppn
// by delta (±1): called wherever a flushPPN reservation or a
// diffInflight unit is added, removed, or relocated by the cleaner.
func (d *Device) inflightOn(ppn uint32, delta int) {
	d.inflightBank[d.bankOf(ppn)] += delta
}

// CheckInflightBanks verifies the per-bank in-flight counters against a
// recount of the flush reservations and in-flight diff units; the
// invariant checker calls it.
func (d *Device) CheckInflightBanks() error {
	want := make([]int, len(d.inflightBank))
	for _, ppn := range d.flushPPN {
		want[d.bankOf(ppn)]++
	}
	for _, u := range d.diffInflight {
		want[d.bankOf(u.ppn)]++
	}
	for bank, n := range d.inflightBank {
		if n != want[bank] {
			return fmt.Errorf("core: bank %d counts %d in-flight flushes, the reservations recount to %d", bank, n, want[bank])
		}
	}
	return nil
}

// bankOccupied reports whether bank already has depth in-flight
// flushes or a running operation holds its claim — the banks a §6
// concurrent flush placement should steer around. The first lane-count
// placements use depth 1 (spread across as many banks as possible);
// deeper pipeline top-ups use depth 2 (a successor queued behind each
// programming bank, ready the instant it completes).
func (d *Device) bankOccupied(bank, depth int) bool {
	if d.inflightBank[bank] >= depth {
		return true
	}
	if d.hostConc > 1 {
		// Multi-outstanding mode: host accesses overlap background work,
		// so banks hold their claims straight through host windows and
		// Busy is true for nearly every bank with any work at all.
		// Steering around it would push flushes into distant partitions
		// (FlushAvoiding's fallback), polluting locality for no gain;
		// only the in-flight flush placements above matter here.
		return false
	}
	return d.banks.Busy(bank)
}

// enqueueStep converts one unit of cleaner work into a scheduler
// operation on the bank that owns the touched segment. Wear-tagged
// steps are accounted as wear-swap operations; the controller-time
// activity stays Cleaning/Erasing either way (§5.3 buckets).
func (d *Device) enqueueStep(st cleaner.Step) {
	geo := d.cfg.Geometry
	switch st.Kind {
	case cleaner.StepCopy:
		kind := stats.OpCleanCopy
		if st.Wear {
			kind = stats.OpWearSwap
		}
		per := d.arr.TransferTime() + d.arr.ProgramTime(st.Seg)
		op := d.sched.GetOp()
		op.Kind = kind
		op.Act = stats.Cleaning
		op.Remaining = sim.Duration(st.Pages) * per
		op.Bank = geo.BankOf(st.Seg)
		d.sched.Enqueue(op)
	case cleaner.StepErase:
		kind := stats.OpErase
		if st.Wear {
			kind = stats.OpWearSwap
		}
		op := d.sched.GetOp()
		op.Kind = kind
		op.Act = stats.Erasing
		op.Remaining = d.arr.EraseTime(st.Seg)
		op.Bank = geo.BankOf(st.Seg)
		d.sched.Enqueue(op)
	default:
		panic(fmt.Sprintf("core: unknown cleaner step kind %v", st.Kind))
	}
}

// finishFlush completes a flush: the page table flips from SRAM to the
// Flash copy and the frame is released — unless the host re-wrote the
// page while the program was in flight, in which case the Flash copy
// is stale and is discarded.
func (d *Device) finishFlush(lpn uint32) {
	ppn, ok := d.flushPPN[lpn]
	if !ok {
		panic(fmt.Sprintf("core: finishing flush of page %d with no record", lpn))
	}
	delete(d.flushPPN, lpn)
	d.inflightOn(ppn, -1)
	frame := d.buf.Lookup(lpn)
	if frame == nil || !frame.Flushing() {
		panic(fmt.Sprintf("core: finishing flush of page %d with no flushing frame", lpn))
	}
	if frame.Dirtied {
		d.arr.Invalidate(ppn)
		d.buf.Requeue(frame)
	} else {
		d.setFlash(lpn, ppn)
		d.buf.Remove(frame)
		frame.ClearDirty()
		if d.dir != nil {
			// A full page reached Flash: the page's diff chain and kept
			// base are superseded — unless an open transaction's shadow
			// holds the base, in which case the chain must survive for
			// rollback to re-apply over it.
			if sh, shOk := d.shadows[lpn]; !shOk || !sh.hasFlash || !d.shadowHoldsBase(lpn, sh.ppn) {
				d.dropEntry(lpn)
			}
		}
	}
	// Keep draining while above the low-water mark.
	if d.buf.Len() > d.lowWater() && d.flushPending == 0 {
		d.flushPending++
	}
	d.tierDrain()
}

// waitForFrame blocks the host until the write buffer has a free
// frame, advancing the clock through whatever flushing and cleaning is
// needed. This is the §5.4 slow path: the copy-on-write that triggered
// it cannot proceed until a flush (and possibly a segment clean and
// erase) completes.
func (d *Device) waitForFrame() {
	guard := 0
	for d.buf.Full() {
		if d.sched.Len() == 0 {
			if d.flushPending == 0 {
				d.flushPending++
			}
			if !d.expandPending() {
				panic("core: write buffer full but nothing is flushable")
			}
		}
		// Advance to the earliest completion in the running set.
		need, ok := d.sched.NextCompletionIn()
		if !ok {
			panic("core: write buffer full but no background op is runnable")
		}
		d.sched.Run(d.now, d.sched.Cursor().Add(need))
		if guard++; guard > 16*d.buf.Cap()+256 {
			panic("core: waitForFrame made no progress")
		}
	}
	if c := d.sched.Cursor(); c > d.now {
		d.now = c
	}
}

// ReplaySteps plays cleaner work that was performed eagerly outside
// the normal flush path — mount-time recovery finishing an interrupted
// operation, or re-leveling wear — out on the simulated clock. The
// Flash mutations already happened; this charges the controller time
// they physically took and runs them through the per-bank schedule.
func (d *Device) ReplaySteps(work []cleaner.Step) {
	if len(work) == 0 {
		return
	}
	for _, st := range work {
		d.enqueueStep(st)
	}
	for d.sched.Len() > 0 {
		need, ok := d.sched.NextCompletionIn()
		if !ok {
			panic("core: replayed steps are not runnable")
		}
		d.sched.Run(d.now, d.sched.Cursor().Add(need))
	}
	if c := d.sched.Cursor(); c > d.now {
		d.now = c
	}
}
