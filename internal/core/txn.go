package core

import (
	"fmt"

	"envy/internal/flash"
	"envy/internal/pagetable"
	"envy/internal/sim"
	"envy/internal/sram"
)

// Hardware atomic transaction support (§6). For a page whose current
// copy is in Flash, the copy-on-write machinery provides the shadow
// for free: the first transactional write keeps the original Flash
// copy Valid instead of invalidating it, and rolling back is a
// page-table flip. For a page that is still in the SRAM write buffer
// (its only copy is the buffered frame), the controller saves a
// pre-image in the battery-backed SRAM set aside for recovery state
// (§5.1: "extra space in the SRAM ... can hold recovery and other
// system state information").

// shadow records the pre-transaction state of one page.
type shadow struct {
	hasFlash bool   // the original Flash copy is intact at ppn
	ppn      uint32 // shadow location in Flash (tracked across cleaning)
	mapped   bool   // the page existed before the transaction
	preimage []byte // SRAM pre-image when !hasFlash && mapped
}

// BeginTransaction opens a transaction. Only one may be open at a
// time; nesting returns an error.
func (d *Device) BeginTransaction() error {
	if d.crashed {
		return ErrCrashed
	}
	if d.inTxn {
		return fmt.Errorf("core: transaction already open")
	}
	d.inTxn = true
	return nil
}

// InTransaction reports whether a transaction is open.
func (d *Device) InTransaction() bool { return d.inTxn }

// TransactionPages returns how many pages the open transaction has
// shadows for.
func (d *Device) TransactionPages() int { return len(d.shadows) }

// captureShadow records the pre-transaction state of a page on its
// first transactional write. frame is the page's buffered frame, or
// nil if the page currently lives in Flash (or nowhere).
//
// It reports whether the caller (the copy-on-write path) must
// invalidate the old Flash copy as usual: false means the copy is
// being kept as the shadow.
func (d *Device) captureShadow(page uint32, frame *sram.Frame) (invalidateOld bool) {
	if !d.inTxn {
		return true
	}
	if _, have := d.shadows[page]; have {
		return true
	}
	loc, mapped := d.table.Lookup(page)
	switch {
	case frame != nil:
		// Current copy is the buffered frame: save a pre-image.
		var pre []byte
		if frame.Data != nil {
			pre = append([]byte(nil), frame.Data...)
		}
		d.shadows[page] = &shadow{mapped: true, preimage: pre}
	case mapped && !loc.InSRAM:
		// Keep the Flash original Valid as the free shadow (§6).
		d.shadows[page] = &shadow{hasFlash: true, ppn: loc.PPN, mapped: true}
		return false
	default:
		// Never written before: rollback will unmap it again.
		d.shadows[page] = &shadow{}
	}
	return true
}

// Commit makes the transaction's writes permanent: Flash shadows are
// invalidated (their space becomes reclaimable) and pre-images are
// dropped.
func (d *Device) Commit() error {
	if d.crashed {
		return ErrCrashed
	}
	if !d.inTxn {
		return fmt.Errorf("core: no transaction open")
	}
	for _, lpn := range sortedKeys(d.shadows) {
		if sh := d.shadows[lpn]; sh.hasFlash {
			d.commitShadowBase(lpn, sh.ppn)
		}
		delete(d.shadows, lpn)
	}
	d.inTxn = false
	return nil
}

// Rollback restores every page written during the transaction to its
// pre-transaction contents: a page-table flip to the Flash shadow
// where one exists (the §6 "free shadow copy"), a pre-image restore
// for pages that only lived in SRAM, and an unmap for pages the
// transaction created.
//
// Rollback itself is crash-safe: shadows are deleted only after their
// page is restored, pre-images live in battery-backed SRAM, and the
// Flash-shadow flip has no crash point — so a power failure mid-rollback
// leaves the remaining shadows intact for the recovery pass to finish.
func (d *Device) Rollback() (err error) {
	if d.crashed {
		return ErrCrashed
	}
	if !d.inTxn {
		return fmt.Errorf("core: no transaction open")
	}
	defer d.catchCrash(&err)
	for _, lpn := range sortedKeys(d.shadows) {
		sh := d.shadows[lpn]
		switch {
		case sh.hasFlash:
			d.discardCurrent(lpn, sh.ppn)
			d.setFlash(lpn, sh.ppn)
		case sh.mapped:
			d.restorePreimage(lpn, sh.preimage)
		default:
			d.discardCurrent(lpn, flash.NoPage)
			d.clearMapping(lpn)
		}
		delete(d.shadows, lpn)
	}
	d.inTxn = false
	return nil
}

// discardCurrent drops the page's current (transactional) version:
// the buffered frame if present (cancelling an in-flight flush), or
// the Flash copy — except keep, the shadow at keep.
func (d *Device) discardCurrent(lpn uint32, keep uint32) {
	if frame := d.buf.Lookup(lpn); frame != nil {
		if frame.Flushing() {
			ppn := d.flushPPN[lpn]
			d.arr.Invalidate(ppn)
			delete(d.flushPPN, lpn)
			d.inflightOn(ppn, -1)
			if !d.sched.CancelDone(lpn) {
				panic(fmt.Sprintf("core: cancelling flush of page %d with no scheduled program", lpn))
			}
		}
		d.buf.Remove(frame)
		if d.dir != nil {
			// A base the directory kept for this frame's next diff is a
			// copy the transaction itself flushed; it dies with the
			// frame. (A base the shadow claims stays: KeptBase is false.)
			if e := d.dir.Entry(lpn); e != nil && e.KeptBase {
				d.dropEntry(lpn)
			}
		}
		return
	}
	if loc, ok := d.table.Lookup(lpn); ok && !loc.InSRAM && loc.PPN != keep {
		d.arr.Invalidate(loc.PPN)
	}
}

// restorePreimage puts a page's saved pre-transaction contents back.
func (d *Device) restorePreimage(lpn uint32, pre []byte) {
	if frame := d.buf.Lookup(lpn); frame != nil {
		// Still buffered: restore the frame in place. An in-flight
		// flush program now carries stale data; marking the frame
		// Dirtied makes its completion discard the Flash copy.
		if frame.Data != nil {
			n := copy(frame.Data, pre)
			for i := n; i < len(frame.Data); i++ {
				frame.Data[i] = 0
			}
		}
		// The whole frame content was replaced: the tracked dirty span
		// must cover it, so a later differential flush cannot program a
		// record that misses reverted bytes.
		frame.MarkDirty(0, d.cfg.Geometry.PageSize)
		if frame.Flushing() {
			frame.Dirtied = true
		}
		return
	}
	// The transactional version reached Flash: restore with a direct
	// program (rollback of an already-flushed page costs one program).
	// Invalidating the stale transactional copy first keeps the
	// cleaner's free-space argument intact, and costs nothing on a
	// crash: the pre-image is battery-backed, so recovery's retried
	// rollback simply programs it again.
	loc, ok := d.table.Lookup(lpn)
	if ok && !loc.InSRAM {
		d.arr.Invalidate(loc.PPN)
		d.table.Unmap(lpn)
	}
	home := d.eng.Home(lpn, false, 0)
	ppn, _ := d.eng.Flush(lpn, home, pre)
	d.setFlash(lpn, ppn)
}

// Preload writes data at addr directly into Flash, bypassing the write
// buffer and all timing. It establishes initial contents (database
// load, file system format) the way a manufacturing or restore pass
// would; call ResetStats afterwards to measure steady state only.
// Preload may not be used while a transaction is open or while pages
// in the target range are buffered.
func (d *Device) Preload(data []byte, addr uint64) error {
	if d.crashed {
		return ErrCrashed
	}
	if d.inTxn {
		return fmt.Errorf("core: Preload during a transaction")
	}
	// Preload models a manufacturing/restore pass that happens before
	// deployment: crash injection is suspended for its duration.
	defer d.setArrayInjectors(d.inj)
	d.setArrayInjectors(nil)
	pageSize := d.cfg.Geometry.PageSize
	if int64(addr)+int64(len(data)) > d.Size() {
		return fmt.Errorf("core: Preload of %d bytes at %d exceeds device size %d", len(data), addr, d.Size())
	}
	for len(data) > 0 {
		page := uint32(addr / uint64(pageSize))
		off := int(addr % uint64(pageSize))
		n := pageSize - off
		if n > len(data) {
			n = len(data)
		}
		if err := d.preloadPage(page, off, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// preloadPage rewrites one page's contents in place (read-modify-write
// through the cleaning engine, untimed).
func (d *Device) preloadPage(page uint32, off int, data []byte) error {
	if f := d.buf.Lookup(page); f != nil {
		return fmt.Errorf("core: Preload of page %d which is buffered", page)
	}
	d.rewriteFlash(page, off, data)
	return nil
}

// rewriteFlash reprograms an unbuffered page's Flash copy with data
// written at off over its current contents (zeros if unmapped), through
// the cleaning engine and untimed. The page is assembled in the
// device's one scratch page: Program copies its payload, so nothing
// retains the scratch.
func (d *Device) rewriteFlash(page uint32, off int, data []byte) {
	if d.pageScratch == nil {
		d.pageScratch = make([]byte, d.cfg.Geometry.PageSize)
	}
	buf := d.pageScratch
	loc, mapped := d.table.Lookup(page)
	var old []byte
	if mapped {
		old, _ = d.mergedPage(page, loc.PPN)
	}
	if old != nil {
		copy(buf, old)
	} else {
		clear(buf)
	}
	copy(buf[off:], data)
	home := d.eng.Home(page, mapped, loc.PPN)
	if mapped {
		d.dropEntry(page)
		d.arr.Invalidate(loc.PPN)
		d.table.Unmap(page)
	}
	ppn, _ := d.eng.Flush(page, home, buf)
	d.setFlash(page, ppn)
}

// Churn performs n random single-page rewrites directly in Flash,
// without simulated time — an aging pass. A freshly loaded device has
// its free space concentrated in never-written segments; real devices
// reach a steady state where invalidated pages are spread across the
// array and cleaning is continuously active. Benchmarks use Churn to
// start measuring from that state instead of simulating minutes of
// warm-up traffic.
func (d *Device) Churn(n int, seed uint64) {
	if d.crashed {
		return
	}
	// Like Preload, Churn is an untimed administrative pass: crash
	// injection is suspended for its duration.
	defer d.setArrayInjectors(d.inj)
	d.setArrayInjectors(nil)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		page := uint32(rng.Intn(d.table.Len()))
		if d.buf.Lookup(page) != nil {
			continue // buffered pages are already "newer" than Flash
		}
		d.rewriteFlash(page, 0, nil)
	}
}

// CheckConsistency verifies the controller's cross-structure
// invariants; the test suite calls it after randomized workloads.
//
//   - every mapped logical page resolves to either a buffered frame or
//     a Valid Flash page owned by it;
//   - every live Flash page is reachable: it is some logical page's
//     current copy, an in-flight flush target, or a transaction shadow;
//   - buffered pages map to SRAM;
//   - the cleaner's structural invariants hold.
func (d *Device) CheckConsistency() error {
	if err := d.eng.CheckInvariants(); err != nil {
		return err
	}
	reachable := make(map[uint32]uint32) // ppn -> expected logical owner
	for lpn := 0; lpn < d.table.Len(); lpn++ {
		loc, ok := d.table.Lookup(uint32(lpn))
		if !ok {
			continue
		}
		if loc.InSRAM {
			if d.buf.Lookup(uint32(lpn)) == nil {
				return fmt.Errorf("page %d maps to SRAM but is not buffered", lpn)
			}
			continue
		}
		if st := d.arr.State(loc.PPN); st != flash.Valid {
			return fmt.Errorf("page %d maps to %v flash page %d", lpn, st, loc.PPN)
		}
		if owner := d.arr.Owner(loc.PPN); owner != uint32(lpn) {
			return fmt.Errorf("page %d maps to flash page %d owned by %d", lpn, loc.PPN, owner)
		}
		reachable[loc.PPN] = uint32(lpn)
	}
	for _, lpn := range sortedKeys(d.flushPPN) {
		reachable[d.flushPPN[lpn]] = lpn
	}
	for _, lpn := range sortedKeys(d.shadows) {
		if sh := d.shadows[lpn]; sh.hasFlash {
			reachable[sh.ppn] = lpn
		}
	}
	d.DiffFlushTargets(func(ppn uint32, members []uint32) {
		reachable[ppn] = flash.DiffOwner
	})
	if d.dir != nil {
		var derr error
		d.dir.Entries(func(lpn uint32, e *pagetable.DiffEntry) {
			if derr != nil {
				return
			}
			if e.KeptBase {
				if loc, ok := d.table.Lookup(lpn); !ok || !loc.InSRAM {
					derr = fmt.Errorf("page %d keeps diff base %d but is not buffered", lpn, e.Base)
					return
				}
				reachable[e.Base] = lpn
			}
		})
		if derr != nil {
			return derr
		}
		d.dir.Units(func(unit uint32, members []uint32) {
			if derr != nil {
				return
			}
			if st := d.arr.State(unit); st != flash.Valid {
				derr = fmt.Errorf("diff unit %d is %v", unit, st)
				return
			}
			if owner := d.arr.Owner(unit); owner != flash.DiffOwner {
				derr = fmt.Errorf("diff unit %d is owned by %d, not the unit sentinel", unit, owner)
				return
			}
			reachable[unit] = flash.DiffOwner
		})
		if derr != nil {
			return derr
		}
	}
	geo := d.cfg.Geometry
	for seg := 0; seg < geo.Segments; seg++ {
		var leak error
		d.arr.LivePages(seg, func(page int, logical uint32) {
			ppn := geo.PPN(seg, page)
			if want, ok := reachable[ppn]; !ok || want != logical {
				leak = fmt.Errorf("flash page %d (logical %d) is live but unreachable", ppn, logical)
			}
		})
		if leak != nil {
			return leak
		}
	}
	var bad error
	d.buf.Frames(func(f *sram.Frame) bool {
		loc, ok := d.table.Lookup(f.Logical)
		if !ok || !loc.InSRAM {
			bad = fmt.Errorf("page %d is buffered but its table entry is %+v (mapped=%v)", f.Logical, loc, ok)
		}
		return bad == nil
	})
	return bad
}
