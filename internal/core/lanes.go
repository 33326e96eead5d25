package core

import (
	"fmt"
	"sync"

	"envy/internal/rlock"
	"envy/internal/sim"
	"envy/internal/stats"
)

// Parallel host service (the lock-decomposed front end). The host
// engine (internal/host) admits a batch of requests whose resource
// footprints — page-table shards plus Flash banks, resolved here at
// admission — are pairwise disjoint, then calls ExecBatch. Each request
// runs on its own execution lane: a goroutine holding the footprint's
// locks (internal/rlock) and advancing a private lane clock. Lanes only
// ever touch state their footprint covers — shard-local page-table
// entries and MMU caches, bank-local Flash pages, and the payload bytes
// of frames already in the SRAM buffer — so disjoint lanes are data-race
// free on real OS threads.
//
// Everything a lane may not touch is resolved at admission: a request
// that would mutate shared state (copy-on-write needing the buffer
// allocator, an open transaction, an armed crash injector) gets no
// footprint and takes the serial path instead. Between admission and
// lane execution no background work runs, so the state a footprint was
// resolved against is the state the lane sees.
//
// Timing: every lane starts at the batch's shared base time (disjoint
// requests genuinely overlap on the simulated device, the way
// independent banks overlap in §6) and the device clock advances to the
// deterministic maximum of the lane ends (sim.ShardedClock). Background
// interaction is replayed serially after the lanes join: each lane's
// access windows are run through sched.Overlap in admission order, so
// any given admission order replays bit-identically regardless of
// GOMAXPROCS or goroutine scheduling.

// BatchAccess is one request in a parallel service batch. The host
// engine fills the request fields and the footprint from Footprint;
// ExecBatch fills the results.
type BatchAccess struct {
	Write bool
	Addr  uint64
	Data  []byte
	FP    *rlock.Footprint

	// Results: the host-observed latency, the lane's completion time,
	// and the first word error, if any (time up to the error is kept,
	// matching the serial ReadErr/WriteErr contract).
	Lat sim.Duration
	End sim.Time
	Err error
}

// Footprint resolves the resource footprint a host access needs for
// lane execution: the page-table shards its page span covers plus the
// Flash banks its data currently lives on (SRAM-buffered and unmapped
// pages take no bank). ok is false when the access cannot run on a
// lane and must take the serial path instead: the device is crashed, a
// crash injector is armed, a transaction is open, the range is invalid,
// or a write would need a copy-on-write (buffer allocator = shared
// state). Resolution itself charges no time and changes no state.
func (d *Device) Footprint(addr uint64, n int, write bool) (*rlock.Footprint, bool) {
	if d.rlocks == nil || d.crashed || d.inj != nil || d.inTxn {
		return nil, false
	}
	if _, err := d.checkAddr(addr, n); err != nil {
		return nil, false
	}
	f := &rlock.Footprint{}
	ps := uint64(d.cfg.Geometry.PageSize)
	last := addr
	if n > 0 {
		last = addr + uint64(n) - 1
	}
	for page := addr / ps; page <= last/ps; page++ {
		lpn := uint32(page)
		f.AddShard(d.table.ShardOf(lpn))
		loc, mapped := d.table.Lookup(lpn)
		switch {
		case !mapped:
			if write {
				return nil, false // first write: copy-on-write allocates a frame
			}
		case loc.InSRAM:
			if write && d.buf.Lookup(lpn) == nil {
				return nil, false // inconsistent mapping; let the serial path trap it
			}
		default:
			if write {
				return nil, false // write to a Flash-resident page: copy-on-write
			}
			f.AddBank(d.bankOf(loc.PPN))
		}
	}
	return f, true
}

// accessWindow is one host access interval a lane performed: the bank
// it occupied (-1 for SRAM/unmapped/translation-only) and where on the
// timeline it ended. The merge phase replays these through the
// background scheduler in admission order.
type accessWindow struct {
	bank int
	end  sim.Time
}

// window records an access interval ending at end. Consecutive
// same-bank windows coalesce: a lane's accesses are contiguous on its
// clock, and sched.Overlap keeps suspension state across calls, so one
// call covering both intervals replays identically to two.
func (ln *lane) window(bank int, end sim.Time) {
	if n := len(ln.windows); n > 0 && ln.windows[n-1].bank == bank {
		ln.windows[n-1].end = end
		return
	}
	ln.windows = append(ln.windows, accessWindow{bank: bank, end: end})
}

// lane is the per-request execution state: a private clock plus private
// copies of every statistic the access paths update, merged serially
// after the lanes join.
type lane struct {
	d   *Device
	clk *sim.LaneClock

	counters stats.Counters
	reading  sim.Duration
	writing  sim.Duration
	readLat  stats.Latency
	writeLat stats.Latency
	windows  []accessWindow

	err      error
	panicked any
}

// ExecBatch services a batch of admitted requests with pairwise
// disjoint footprints, one execution lane per request, then merges the
// outcome deterministically. Callers (the host engine) must have
// resolved every footprint via Footprint with no device activity in
// between.
func (d *Device) ExecBatch(batch []*BatchAccess) {
	if d.rlocks == nil {
		panic("core: ExecBatch on a device without ParallelService")
	}
	for i, a := range batch {
		for j := i + 1; j < len(batch); j++ {
			if !a.FP.Disjoint(batch[j].FP) {
				panic(fmt.Sprintf("core: batch members %d and %d have conflicting footprints %v / %v",
					i, j, a.FP, batch[j].FP))
			}
		}
	}
	clk := sim.NewShardedClock(d.now, len(batch))
	lanes := make([]*lane, len(batch))
	var wg sync.WaitGroup
	for i, a := range batch {
		ln := &lane{d: d, clk: clk.Lane(i)}
		lanes[i] = ln
		wg.Add(1)
		go func(ln *lane, a *BatchAccess) {
			defer wg.Done()
			d.rlocks.Lock(a.FP)
			defer d.rlocks.Unlock(a.FP)
			ln.serve(a)
		}(ln, a)
	}
	wg.Wait()
	for _, ln := range lanes {
		if ln.panicked != nil {
			//envyvet:allow panicpolicy — re-raising a lane's captured panic value verbatim
			panic(ln.panicked)
		}
	}
	// Merge phase, in admission order: fold lane statistics into the
	// device, replay each lane's access windows through the background
	// scheduler (windows that end at or before the cursor were shadowed
	// by a longer earlier lane and are already simulated), and land the
	// clock on the deterministic batch end.
	for i, ln := range lanes {
		a := batch[i]
		a.Err = ln.err
		a.End = ln.clk.Now()
		a.Lat = a.End.Sub(clk.Base())
		d.counters.Add(ln.counters)
		d.breakdown.Add(stats.Reading, ln.reading)
		d.breakdown.Add(stats.Writing, ln.writing)
		d.readLat.Merge(&ln.readLat)
		d.writeLat.Merge(&ln.writeLat)
		for _, w := range ln.windows {
			if w.end <= d.sched.Cursor() {
				continue
			}
			d.sched.Overlap(w.bank, w.end)
		}
	}
	merged := clk.Merge()
	if merged > d.now {
		d.now = merged
	}
	if d.sched.Cursor() < d.now {
		d.sched.Overlap(-1, d.now)
	}
	d.maybeScheduleFlush()
}

// serve runs one request on its lane, mirroring the serial Read/Write
// word loop. Panics are captured and re-raised by the merge phase so a
// programming-error trap in one lane does not deadlock the batch.
func (ln *lane) serve(a *BatchAccess) {
	defer func() {
		if r := recover(); r != nil {
			ln.panicked = r
		}
	}()
	p := a.Data
	for off := 0; off < len(p); off += 4 {
		end := off + 4
		if end > len(p) {
			end = len(p)
		}
		var err error
		if a.Write {
			err = ln.write(a.Addr+uint64(off), p[off:end])
		} else {
			err = ln.read(a.Addr+uint64(off), p[off:end])
		}
		if err != nil {
			ln.err = err
			return
		}
	}
}

// translate mirrors Device.translate with lane-local counters. The
// shard MMU is exclusive to this lane: the footprint holds the shard
// lock.
func (ln *lane) translate(page uint32) sim.Duration {
	cost := ln.d.mmuFor(page).Translate(page)
	if cost == 0 {
		ln.counters.MMUHits++
	} else {
		ln.counters.MMUMisses++
	}
	return ln.d.cfg.BusOverhead + cost
}

// read mirrors Device.read on the lane clock.
func (ln *lane) read(addr uint64, p []byte) error {
	d := ln.d
	page, err := d.checkAddr(addr, len(p))
	if err != nil {
		return err
	}
	off := int(addr % uint64(d.cfg.Geometry.PageSize))
	if off+len(p) > d.cfg.Geometry.PageSize {
		return &AccessError{Addr: addr, Len: len(p), Size: d.Size(), Boundary: true}
	}
	lat := ln.translate(page)
	bank := -1
	loc, mapped := d.table.LookupOwned(page) // footprint holds the shard lock
	switch {
	case !mapped:
		lat += d.arr.ReadTime()
		for i := range p {
			p[i] = 0
		}
	case loc.InSRAM:
		lat += 100 * sim.Nanosecond
		if f := d.buf.Lookup(page); f != nil && f.Data != nil {
			copy(p, f.Data[off:])
		} else {
			for i := range p {
				p[i] = 0
			}
		}
	default:
		lat += d.arr.ReadTime()
		bank = d.bankOf(loc.PPN)
		if data := d.arr.Page(loc.PPN); data != nil {
			copy(p, data[off:])
		} else {
			for i := range p {
				p[i] = 0
			}
		}
	}
	ln.counters.HostReads++
	ln.reading += lat
	end := ln.clk.Advance(lat)
	ln.window(bank, end)
	ln.readLat.Record(lat)
	return nil
}

// write mirrors the buffer-hit branch of Device.write on the lane
// clock. Footprint resolution guarantees the page is buffered (a write
// needing copy-on-write takes the serial path) and that no transaction
// is open (so the serial path's captureShadow would be a no-op here).
func (ln *lane) write(addr uint64, p []byte) error {
	d := ln.d
	page, err := d.checkAddr(addr, len(p))
	if err != nil {
		return err
	}
	off := int(addr % uint64(d.cfg.Geometry.PageSize))
	if off+len(p) > d.cfg.Geometry.PageSize {
		return &AccessError{Addr: addr, Len: len(p), Size: d.Size(), Boundary: true}
	}
	start := ln.clk.Now()
	lat := ln.translate(page)
	frame := d.buf.Lookup(page)
	if frame == nil {
		panic(fmt.Sprintf("core: lane write to page %d missed the buffer; footprint admitted a copy-on-write", page))
	}
	ln.counters.BufferHits++
	if frame.Flushing() {
		// The in-flight Flash copy is stale the moment this write
		// lands; it will be invalidated when the program finishes.
		frame.Dirtied = true
		// Pool.Sync is safe from service-lane goroutines, and flushPPN
		// is only mutated by the serial background step, which never
		// runs concurrently with a parallel service window.
		d.syncFlushTarget(page)
	}
	lat += 100 * sim.Nanosecond // SRAM write cycle
	if frame.Data != nil {
		copy(frame.Data[off:], p)
	}
	ln.counters.HostWrites++
	ln.writing += lat
	end := ln.clk.Advance(lat)
	ln.window(-1, end)
	ln.writeLat.Record(end.Sub(start))
	return nil
}
