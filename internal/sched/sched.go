// Package sched is the controller's deterministic discrete-event
// scheduler for background work. The paper's long operations — flush
// programs, cleaning copies, erases, wear-swap relocations (§3.4) —
// are first-class resumable values (Op) carrying their own cost,
// suspend state, and per-bank resource claim, replacing the anonymous
// step closures that used to live in internal/core.
//
// # Model
//
// Operations enter a single FIFO queue. Each scheduling slice the
// scheduler selects a running set: every op already holding its bank
// claim (the chips are mid-operation on its behalf and must either
// continue or be suspended), then further queued ops in FIFO order
// whose target bank is free, up to the lane limit — with at most
// flushLanes flush programs among them (the §6 ParallelFlush setting,
// the controller's outstanding-flush bound). With one lane the whole
// controller serializes, reproducing the paper's base system; with
// more, each bank runs its own program or erase independently.
// Because two operations on one bank can never
// run together, FIFO order within a bank is preserved — which is
// exactly the dependency that matters: a segment is reused only after
// its erase, and both map to the same bank.
//
// Every op in the running set progresses at full hardware rate — k
// overlapping ops retire k times the work per unit of wall time. The
// controller-time breakdown, however, is conserved: each wall
// nanosecond is charged to exactly one activity, split evenly across
// the running set (remainder nanoseconds go to the earliest ops), so
// Breakdown.Total() still equals elapsed time and, with one lane, the
// accounting is identical to the sequential controller.
//
// A host access preempts the whole controller: Preempt suspends the
// prospective running set and releases its bank claims (a suspended
// program leaves the chips free, §3.4). Resuming costs ResumeDelay
// once per pause, paid as idle time before the set continues — if the
// quiet window is shorter than that, the controller stays parked.
//
// In the multi-outstanding host mode a host access instead calls
// Overlap, which suspends only the ops on the accessed bank and lets
// the rest keep running through the access window. Their progress is
// charged per resource on top of the host's own charge for the same
// wall time, so in that mode the breakdown total can exceed elapsed
// time — fractions then compare resource busy-time rather than
// wall-clock shares.
//
// Determinism: given the same op sequence and the same Run/Preempt
// call sites, the schedule is a pure function of the queue — no maps,
// no randomness, no wall clock.
package sched

import (
	"fmt"

	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/stats"
)

// Op is one resumable background operation. The exported fields
// describe the work; the scheduler owns the lifecycle state.
type Op struct {
	Kind stats.OpKind   // lifecycle accounting bucket
	Act  stats.Activity // controller-time breakdown bucket

	// Remaining is the operation's outstanding cost in controller
	// time. Zero-cost ops (a copy step with no live pages) are legal
	// and complete without advancing the clock.
	Remaining sim.Duration

	// Bank is the Flash bank the op occupies while running.
	Bank int

	// Tag optionally labels the op with a logical page (set Tagged);
	// the flush path uses it to find and cancel the completion
	// callback of a superseded flush.
	Tag    uint32
	Tagged bool

	// Done runs when the op completes, after its bank claim is
	// released.
	Done func()

	// DonePage is the closure-free completion form for tagged ops: it
	// receives Tag when the op completes. The flush hot path uses it
	// with one long-lived callback instead of allocating a closure per
	// op. At most one of Done/DonePage may be set.
	DonePage func(uint32)

	id          int64
	claimed     bool
	suspended   bool
	suspendedAt sim.Time
	pooled      bool // obtained from the scheduler's freelist; recycled on completion
}

// Hooks connects the scheduler to its controller.
type Hooks struct {
	// Expand offers the controller a chance to enqueue more work when
	// the running set has a free lane. It reports whether anything was
	// enqueued (or other progress was made); the scheduler then
	// reconsiders the queue at the same instant.
	Expand func() bool

	// Tick is called once per scheduling iteration with the current
	// cursor, so time-triggered fault plans see the background
	// timeline advance.
	Tick func(sim.Time)

	// Merge, when set, is called between the completion callbacks of a
	// multi-lane window — k ≥ 2 ops retiring at one simulated instant,
	// their lanes' effects merging in admission order. The §9 crash
	// model hooks a fault.Injector.AtMerge check here, so an armed
	// fault can fire with the window partially merged: the earlier
	// ops' callbacks have run, the later ops are lost in flight. The
	// hook may panic with a *fault.Crash; it must not enqueue work.
	Merge func()
}

// Scheduler executes queued ops over simulated time.
type Scheduler struct {
	lanes       int
	flushLanes  int
	resumeDelay sim.Duration
	banks       *flash.BankSet
	breakdown   *stats.Breakdown
	ops         *stats.OpStats
	hooks       Hooks

	queue  []*Op
	cursor sim.Time
	nextID int64

	// parked memoises a Preempt that found nothing left to suspend or
	// release: no op holds a claim and the whole prospective running set
	// is already suspended. pick is a pure function of the queue and the
	// claims, so until one of them changes — Enqueue, Reset, or Run and
	// Overlap (the only places ops resume, claim and complete), each of
	// which clears the flag — another Preempt can only move the cursor,
	// and skips the pick.
	parked bool

	run       []*Op  // scratch: current running set
	bankTaken []bool // scratch: banks reserved during pick
	free      []*Op  // recycled ops for the background hot path
	finished  []*Op  // scratch: ops retiring in the current window
}

// New builds a scheduler running up to lanes concurrent ops — of which
// at most flushLanes may be flush programs (the §6 ParallelFlush
// setting: the controller's outstanding-flush queue depth) — over
// banks, charging controller time to breakdown and op lifecycles to
// ops. lanes = 1 reproduces the paper's base controller, which
// performs one background operation at a time; lanes = banks models
// autonomous banks, each free to run its own program or erase.
func New(lanes, flushLanes int, resumeDelay sim.Duration, banks *flash.BankSet, breakdown *stats.Breakdown, ops *stats.OpStats, hooks Hooks) *Scheduler {
	if lanes < 1 {
		panic(fmt.Sprintf("sched: need at least one lane, got %d", lanes))
	}
	if flushLanes < 1 {
		panic(fmt.Sprintf("sched: need at least one flush lane, got %d", flushLanes))
	}
	if lanes > banks.Banks() {
		lanes = banks.Banks() // a bank serves one op; extra lanes could never fill
	}
	if flushLanes > lanes {
		flushLanes = lanes
	}
	return &Scheduler{
		lanes:       lanes,
		flushLanes:  flushLanes,
		resumeDelay: resumeDelay,
		banks:       banks,
		breakdown:   breakdown,
		ops:         ops,
		hooks:       hooks,
		bankTaken:   make([]bool, banks.Banks()),
	}
}

// GetOp returns a zeroed Op, recycled from completed pooled ops when
// one is available. Ops obtained here are returned to the freelist
// when they complete; callers must not retain the pointer past
// Enqueue. Ops built with a plain literal are never recycled.
func (s *Scheduler) GetOp() *Op {
	if n := len(s.free); n > 0 {
		op := s.free[n-1]
		s.free = s.free[:n-1]
		return op
	}
	return &Op{pooled: true}
}

// Enqueue appends op to the work queue.
func (s *Scheduler) Enqueue(op *Op) {
	if op.Bank < 0 || op.Bank >= s.banks.Banks() {
		panic(fmt.Sprintf("sched: op targets bank %d of %d", op.Bank, s.banks.Banks()))
	}
	if op.Remaining < 0 {
		panic(fmt.Sprintf("sched: op with negative cost %d", int64(op.Remaining)))
	}
	s.nextID++
	op.id = s.nextID
	op.claimed = false
	op.suspended = false
	s.parked = false
	s.queue = append(s.queue, op)
	s.ops.Counters(op.Kind).Started++
}

// Len returns the number of queued (incomplete) ops.
func (s *Scheduler) Len() int { return len(s.queue) }

// Cursor returns the point on the timeline up to which background
// execution has been simulated.
func (s *Scheduler) Cursor() sim.Time { return s.cursor }

// pick selects the running set: claim holders first (their banks are
// already mid-operation), then eligible unclaimed ops in FIFO order,
// up to the lane limit — with at most flushLanes flush programs in the
// set, the controller's outstanding-flush bound. No claims are
// acquired here — a picked op may still be suspended, and acquisition
// must wait until it has resumed.
func (s *Scheduler) pick() []*Op {
	s.run = s.run[:0]
	for i := range s.bankTaken {
		s.bankTaken[i] = false
	}
	flushes := 0
	for _, op := range s.queue {
		if len(s.run) == s.lanes {
			break
		}
		if op.claimed {
			s.run = append(s.run, op)
			s.bankTaken[op.Bank] = true
			if op.Kind.IsFlush() {
				flushes++
			}
		}
	}
	for _, op := range s.queue {
		if len(s.run) == s.lanes {
			break
		}
		if op.claimed || s.bankTaken[op.Bank] || s.banks.Busy(op.Bank) {
			continue
		}
		if op.Kind.IsFlush() {
			if flushes == s.flushLanes {
				continue
			}
			flushes++
		}
		s.run = append(s.run, op)
		s.bankTaken[op.Bank] = true
	}
	return s.run
}

// Run executes background work on [max(cursor, from), until):
// resuming after preemptions, asking Expand for work when lanes are
// free, and charging idle time when there is nothing to do.
func (s *Scheduler) Run(from, until sim.Time) {
	s.parked = false
	if s.cursor < from {
		s.cursor = from
	}
	for s.cursor < until {
		if s.hooks.Tick != nil {
			s.hooks.Tick(s.cursor)
		}
		run := s.pick()
		if len(run) < s.lanes && s.hooks.Expand != nil && s.hooks.Expand() {
			continue
		}
		if len(run) == 0 {
			s.breakdown.Add(stats.Idle, until.Sub(s.cursor))
			s.cursor = until
			return
		}
		// A preempted running set resumes as a unit: one ResumeDelay of
		// idle time covers the whole pause, or the controller stays
		// parked if the quiet window is too short (§3.4).
		paused := false
		for _, op := range run {
			if op.suspended {
				paused = true
				break
			}
		}
		if paused {
			if until.Sub(s.cursor) < s.resumeDelay {
				s.breakdown.Add(stats.Idle, until.Sub(s.cursor))
				s.cursor = until
				return
			}
			s.breakdown.Add(stats.Idle, s.resumeDelay)
			s.cursor = s.cursor.Add(s.resumeDelay)
			for _, op := range run {
				if !op.suspended {
					continue
				}
				op.suspended = false
				c := s.ops.Counters(op.Kind)
				c.Resumes++
				c.Suspended += s.cursor.Sub(op.suspendedAt)
			}
		}
		for _, op := range run {
			if !op.claimed {
				s.banks.Claim(op.Bank, op.id)
				op.claimed = true
			}
		}
		zero := false
		for _, op := range run {
			if op.Remaining == 0 {
				zero = true
				break
			}
		}
		if zero {
			s.completeFinished()
			continue
		}
		avail := until.Sub(s.cursor)
		dt := avail
		for _, op := range run {
			if op.Remaining < dt {
				dt = op.Remaining
			}
		}
		// Each running op progresses by the full dt (the banks work in
		// parallel); the breakdown splits the wall time across the set
		// so total charged time equals elapsed time.
		share := dt / sim.Duration(len(run))
		rem := int(dt % sim.Duration(len(run)))
		for i, op := range run {
			charge := share
			if i < rem {
				charge += sim.Nanosecond
			}
			s.breakdown.Add(op.Act, charge)
			s.ops.Counters(op.Kind).Active += dt
			op.Remaining -= dt
		}
		s.chargeOverlap(run, dt)
		s.cursor = s.cursor.Add(dt)
		s.completeFinished()
	}
}

// chargeOverlap records flush/clean concurrency: when the running set
// holds both a flush program and a cleaning copy, the slice counts
// toward the FlushCleanOverlap accumulator — the observable for the §6
// claim that cleaning copy-out can proceed while the flush stream keeps
// programming on other banks.
func (s *Scheduler) chargeOverlap(run []*Op, dt sim.Duration) {
	var flush, clean bool
	for _, op := range run {
		switch op.Kind {
		case stats.OpFlush, stats.OpDiffFlush:
			flush = true
		case stats.OpCleanCopy:
			clean = true
		default: // erases and wear swaps don't enter the overlap metric
		}
	}
	if flush && clean {
		s.ops.AddFlushCleanOverlap(dt)
	}
}

// completeFinished retires every running-set op that has no work left,
// in FIFO order: release the bank, count the completion, run the
// completion callback. When two or more ops retire in one window —
// disjoint banks completing at the same simulated instant — the Merge
// hook runs in each gap between callbacks, so an armed fault can crash
// the device with the window partially merged (§9 in parallel form).
// A pooled op returns to the freelist once its callback has run.
func (s *Scheduler) completeFinished() {
	s.finished = s.finished[:0]
	kept := s.queue[:0]
	for _, op := range s.queue {
		if op.claimed && op.Remaining == 0 {
			s.finished = append(s.finished, op)
		} else {
			kept = append(kept, op)
		}
	}
	s.queue = kept
	multi := len(s.finished) > 1
	for i, op := range s.finished {
		if multi && i > 0 && s.hooks.Merge != nil {
			s.hooks.Merge()
		}
		s.banks.Release(op.Bank, op.id)
		op.claimed = false
		s.ops.Counters(op.Kind).Completed++
		done, donePage, tag := op.Done, op.DonePage, op.Tag
		if op.pooled {
			*op = Op{pooled: true}
			s.free = append(s.free, op)
		}
		switch {
		case done != nil:
			done()
		case donePage != nil:
			donePage(tag)
		}
	}
}

// Preempt interrupts background work for a host access ending at now:
// the prospective running set is suspended and its bank claims are
// released (a suspended program or erase leaves the chips free), and
// the cursor catches up to the host clock. Back-to-back host accesses
// preempt over and over with nothing in between; once a Preempt has
// found the set already parked (see Scheduler.parked) the rest only
// move the cursor.
func (s *Scheduler) Preempt(now sim.Time) {
	if !s.parked {
		changed := false
		for _, op := range s.pick() {
			if op.claimed || !op.suspended {
				changed = true
			}
			s.suspendOp(op, now)
		}
		s.parked = !changed
	}
	s.cursor = now
}

// Parked reports whether the next Preempt is known to change nothing
// but the cursor. The controller's span kernel accounts a run of host
// accesses in closed form only while this holds.
func (s *Scheduler) Parked() bool { return s.parked }

// Overlap advances the background timeline through a host access
// ending at now, suspending only the operations that touch the
// accessed bank (bank < 0 — an SRAM or unmapped access — suspends
// nothing). This is the multi-outstanding host model: the host owns
// the bus and one bank for the access window, while the other banks'
// programs and erases keep running autonomously (§6 extended to the
// host path). The single-outstanding model uses Preempt instead, which
// parks the whole controller (§3.4).
//
// Ops parked on other banks resume autonomously: each resume pays the
// §3.4 ResumeDelay as extra occupancy on the op's own bank (charged to
// the op's activity), since the busy bus leaves no wall time to charge
// it to as idle. No idle time is charged in the window (the wall time
// is already charged to the host activity by the caller). Each
// progressing op is charged its full progress, so in this mode the
// breakdown counts per-resource busy time and its total can exceed
// wall time — see the package comment on conservation.
func (s *Scheduler) Overlap(bank int, now sim.Time) {
	s.parked = false
	for s.cursor < now {
		run := s.pick()
		// Park ops on the accessed bank: the host owns those chips for
		// this access. Parked ops on any other bank restart on their own,
		// paying the resume delay out of their bank's time.
		n := 0
		for _, op := range run {
			if bank >= 0 && op.Bank == bank {
				s.suspendOp(op, s.cursor)
				continue
			}
			if op.suspended {
				op.suspended = false
				op.Remaining += s.resumeDelay
				c := s.ops.Counters(op.Kind)
				c.Resumes++
				c.Suspended += s.cursor.Sub(op.suspendedAt)
			}
			run[n] = op
			n++
		}
		run = run[:n]
		if len(run) == 0 {
			break
		}
		for _, op := range run {
			if !op.claimed {
				s.banks.Claim(op.Bank, op.id)
				op.claimed = true
			}
		}
		zero := false
		for _, op := range run {
			if op.Remaining == 0 {
				zero = true
				break
			}
		}
		if zero {
			s.completeFinished()
			continue
		}
		dt := now.Sub(s.cursor)
		for _, op := range run {
			if op.Remaining < dt {
				dt = op.Remaining
			}
		}
		for _, op := range run {
			s.breakdown.Add(op.Act, dt)
			s.ops.Counters(op.Kind).Active += dt
			op.Remaining -= dt
		}
		s.chargeOverlap(run, dt)
		s.cursor = s.cursor.Add(dt)
		s.completeFinished()
	}
	s.cursor = now
}

// QueuedOn counts queued (incomplete) operations of the given kind
// targeting bank. The controller's flush placement uses it to steer
// programs away from banks with cleaning copies waiting, so copy-out
// overlaps flush programming on distinct banks instead of queueing
// behind it.
func (s *Scheduler) QueuedOn(bank int, kind stats.OpKind) int {
	n := 0
	for _, op := range s.queue {
		if op.Bank == bank && op.Kind == kind {
			n++
		}
	}
	return n
}

// suspendOp parks one op. The bank claim must be released before the
// op is marked suspended — a suspended op never holds hardware.
func (s *Scheduler) suspendOp(op *Op, now sim.Time) {
	if op.claimed {
		s.banks.Release(op.Bank, op.id)
		op.claimed = false
	}
	if op.suspended {
		return // already parked; the original suspension instant stands
	}
	op.suspended = true
	op.suspendedAt = now
	s.ops.Counters(op.Kind).Suspensions++
}

// NextCompletionIn returns how much quiet time the earliest queued
// completion needs from the cursor: the smallest outstanding cost in
// the prospective running set, plus one ResumeDelay if the set was
// preempted. ok is false when the queue is empty.
func (s *Scheduler) NextCompletionIn() (need sim.Duration, ok bool) {
	run := s.pick()
	if len(run) == 0 {
		return 0, false
	}
	need = run[0].Remaining
	paused := false
	for _, op := range run {
		if op.Remaining < need {
			need = op.Remaining
		}
		if op.suspended {
			paused = true
		}
	}
	if paused {
		need += s.resumeDelay
	}
	return need, true
}

// CancelDone clears the completion callback of the queued flush op
// tagged with lpn, reporting whether one was found. The op itself
// still runs to completion — the chips cannot abandon a program
// mid-burst — but its effect is disowned.
func (s *Scheduler) CancelDone(lpn uint32) bool {
	for _, op := range s.queue {
		if op.Kind == stats.OpFlush && op.Tagged && op.Tag == lpn && (op.Done != nil || op.DonePage != nil) {
			op.Done = nil
			op.DonePage = nil
			return true
		}
	}
	return false
}

// PendingDone counts queued ops of kind whose completion callback is
// still armed. The controller's invariant checker matches this against
// its in-flight flush reservations.
func (s *Scheduler) PendingDone(kind stats.OpKind) int {
	n := 0
	for _, op := range s.queue {
		if op.Kind == kind && (op.Done != nil || op.DonePage != nil) {
			n++
		}
	}
	return n
}

// Reset discards all queued work and claims — a power failure: the
// eager Flash mutations already happened, everything in flight simply
// stops — and restarts the timeline at now.
func (s *Scheduler) Reset(now sim.Time) {
	s.parked = false
	s.queue = nil
	s.banks.Reset()
	s.cursor = now
}

// SelfCheck verifies the scheduler's internal invariants: a suspended
// op holds no bank claim, every claim is mutually consistent with the
// bank set, and the claim count never exceeds the lane limit.
func (s *Scheduler) SelfCheck() error {
	claimed := 0
	for _, op := range s.queue {
		if op.suspended && op.claimed {
			return fmt.Errorf("sched: suspended %v op holds bank %d claim", op.Kind, op.Bank)
		}
		if op.claimed {
			claimed++
			if owner := s.banks.Owner(op.Bank); owner != op.id {
				return fmt.Errorf("sched: %v op %d claims bank %d, which is held by op %d",
					op.Kind, op.id, op.Bank, owner)
			}
		}
	}
	if busy := s.banks.InUse(); busy != claimed {
		return fmt.Errorf("sched: %d banks busy but %d queued ops hold claims", busy, claimed)
	}
	if claimed > s.lanes {
		return fmt.Errorf("sched: %d claims exceed the %d-lane limit", claimed, s.lanes)
	}
	return nil
}
