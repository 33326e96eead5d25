package sched

import (
	"testing"

	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/stats"
)

type fixture struct {
	s  *Scheduler
	bd *stats.Breakdown
	os *stats.OpStats
}

func newFixture(lanes, banks int, hooks Hooks) *fixture {
	bd := &stats.Breakdown{}
	os := &stats.OpStats{}
	return &fixture{
		s:  New(lanes, lanes, 2*sim.Microsecond, flash.NewBankSet(banks), bd, os, hooks),
		bd: bd,
		os: os,
	}
}

func op(kind stats.OpKind, act stats.Activity, cost sim.Duration, bank int) *Op {
	return &Op{Kind: kind, Act: act, Remaining: cost, Bank: bank}
}

func TestSingleLaneFIFO(t *testing.T) {
	f := newFixture(1, 4, Hooks{})
	var order []int
	mk := func(i int, cost sim.Duration, bank int) *Op {
		o := op(stats.OpCleanCopy, stats.Cleaning, cost, bank)
		o.Done = func() { order = append(order, i) }
		return o
	}
	f.s.Enqueue(mk(0, 100, 0))
	f.s.Enqueue(mk(1, 50, 1)) // different free bank, but only one lane
	f.s.Enqueue(mk(2, 25, 0))
	f.s.Run(0, 1000)
	if want := []int{0, 1, 2}; len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("completion order = %v, want %v", order, want)
	}
	// Sequential: 175 ns of work, the rest idle.
	if got := f.bd.Get(stats.Cleaning); got != 175 {
		t.Errorf("cleaning time = %d, want 175", got)
	}
	if got := f.bd.Get(stats.Idle); got != 825 {
		t.Errorf("idle time = %d, want 825", got)
	}
	if f.s.Len() != 0 {
		t.Errorf("queue not drained: %d ops left", f.s.Len())
	}
}

func TestParallelOverlapDistinctBanks(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 0))
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 1))
	f.s.Run(0, 100)
	// Both ran concurrently: done in 100 ns of wall time, with the
	// breakdown conserving wall time (50+50), not doubling it.
	if f.s.Len() != 0 {
		t.Fatalf("%d ops left after 100ns; overlap did not happen", f.s.Len())
	}
	if got := f.bd.Get(stats.Flushing); got != 100 {
		t.Errorf("flushing charge = %d, want 100 (wall-conserving split)", got)
	}
	c := f.os.Get(stats.OpFlush)
	if c.Completed != 2 || c.Active != 200 {
		t.Errorf("flush counters = %+v, want Completed=2 Active=200", c)
	}
}

func TestSameBankSerializes(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	var order []int
	mk := func(i int, bank int) *Op {
		o := op(stats.OpErase, stats.Erasing, 100, bank)
		o.Done = func() { order = append(order, i) }
		return o
	}
	f.s.Enqueue(mk(0, 2))
	f.s.Enqueue(mk(1, 2)) // same bank: must wait for op 0
	f.s.Run(0, 150)
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("after 150ns completions = %v, want [0]", order)
	}
	f.s.Run(150, 250)
	if len(order) != 2 || order[1] != 1 {
		t.Errorf("after 250ns completions = %v, want [0 1]", order)
	}
	if got := f.bd.Get(stats.Erasing); got != 200 {
		t.Errorf("erase time = %d, want 200 (strictly serial)", got)
	}
}

func TestPreemptAndResume(t *testing.T) {
	f := newFixture(1, 2, Hooks{})
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 10000, 0))
	f.s.Run(0, 4000) // 4000 of 10000 done
	if err := f.s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	f.s.Preempt(4500) // host access occupied [4000, 4500)
	if err := f.s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	// A quiet window shorter than ResumeDelay (2µs) stays parked.
	f.s.Run(4500, 5000)
	c := f.os.Get(stats.OpErase)
	if c.Resumes != 0 {
		t.Fatalf("resumed inside a %dns window, want parked", 500)
	}
	if got := f.bd.Get(stats.Idle); got != 500 {
		t.Errorf("idle during short window = %d, want 500", got)
	}
	// A long window pays the 2µs resume delay, then finishes the op:
	// 6000 ns of work left.
	f.s.Run(5000, 5000+2000+6000)
	c = f.os.Get(stats.OpErase)
	if c.Suspensions != 1 || c.Resumes != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 suspension, 1 resume, 1 completion", c)
	}
	// Suspended from 4500 (preempt instant) to 7000 (resume complete).
	if c.Suspended != 2500 {
		t.Errorf("suspended time = %d, want 2500", c.Suspended)
	}
	if c.Active != 10000 {
		t.Errorf("active time = %d, want 10000", c.Active)
	}
}

func TestPreemptReleasesClaims(t *testing.T) {
	banks := flash.NewBankSet(2)
	bd, os := &stats.Breakdown{}, &stats.OpStats{}
	s := New(2, 2, 2*sim.Microsecond, banks, bd, os, Hooks{})
	s.Enqueue(op(stats.OpFlush, stats.Flushing, 1000, 0))
	s.Enqueue(op(stats.OpFlush, stats.Flushing, 1000, 1))
	s.Run(0, 500)
	if banks.InUse() != 2 {
		t.Fatalf("banks in use mid-run = %d, want 2", banks.InUse())
	}
	s.Preempt(600)
	if banks.InUse() != 0 {
		t.Errorf("banks in use after preempt = %d, want 0 (suspended ops hold no hardware)", banks.InUse())
	}
	if err := s.SelfCheck(); err != nil {
		t.Error(err)
	}
}

func TestZeroCostOpCompletes(t *testing.T) {
	f := newFixture(1, 2, Hooks{})
	ran := false
	o := op(stats.OpCleanCopy, stats.Cleaning, 0, 0)
	o.Done = func() { ran = true }
	f.s.Enqueue(o)
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 100, 0))
	f.s.Run(0, 100)
	if !ran {
		t.Error("zero-cost op never completed")
	}
	if f.s.Len() != 0 {
		t.Errorf("queue length = %d, want 0", f.s.Len())
	}
	if got := f.bd.Get(stats.Erasing); got != 100 {
		t.Errorf("erase time = %d, want 100", got)
	}
}

func TestExpandHook(t *testing.T) {
	fed := 0
	var s *Scheduler
	hooks := Hooks{Expand: func() bool {
		if fed == 3 {
			return false
		}
		fed++
		s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, fed%2))
		return true
	}}
	f := newFixture(2, 2, hooks)
	s = f.s
	s.Run(0, 1000)
	if fed != 3 {
		t.Errorf("expand fed %d ops, want 3", fed)
	}
	if c := f.os.Get(stats.OpFlush); c.Completed != 3 {
		t.Errorf("completed = %d, want 3", c.Completed)
	}
}

func TestNextCompletionIn(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	if _, ok := f.s.NextCompletionIn(); ok {
		t.Error("empty queue reported a completion")
	}
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 300, 0))
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 1))
	if need, ok := f.s.NextCompletionIn(); !ok || need != 100 {
		t.Errorf("need = %d,%v, want 100,true (earliest of the running set)", need, ok)
	}
	f.s.Preempt(0)
	// After a preemption the resume delay is part of the wait.
	if need, ok := f.s.NextCompletionIn(); !ok || need != 100+2000 {
		t.Errorf("need after preempt = %d,%v, want 2100,true", need, ok)
	}
}

func TestCancelDone(t *testing.T) {
	f := newFixture(1, 2, Hooks{})
	ran := false
	o := op(stats.OpFlush, stats.Flushing, 100, 0)
	o.Tag, o.Tagged = 42, true
	o.Done = func() { ran = true }
	f.s.Enqueue(o)
	if !f.s.CancelDone(42) {
		t.Fatal("CancelDone found no op for tag 42")
	}
	if f.s.CancelDone(42) {
		t.Error("CancelDone found an already-cancelled op")
	}
	if f.s.PendingDone(stats.OpFlush) != 0 {
		t.Error("cancelled op still counts as pending")
	}
	f.s.Run(0, 100)
	if ran {
		t.Error("cancelled Done callback ran")
	}
	if c := f.os.Get(stats.OpFlush); c.Completed != 1 {
		t.Errorf("cancelled op did not run to completion: %+v", c)
	}
}

func TestReset(t *testing.T) {
	f := newFixture(2, 2, Hooks{})
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 1000, 0))
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 1000, 1))
	f.s.Run(0, 500)
	f.s.Reset(500)
	if f.s.Len() != 0 {
		t.Errorf("queue after reset = %d, want 0", f.s.Len())
	}
	if f.s.Cursor() != 500 {
		t.Errorf("cursor after reset = %d, want 500", f.s.Cursor())
	}
	if err := f.s.SelfCheck(); err != nil {
		t.Error(err)
	}
}

// TestBreakdownConservation checks the core accounting identity: no
// matter how ops overlap, every wall nanosecond is charged exactly
// once.
func TestBreakdownConservation(t *testing.T) {
	f := newFixture(3, 4, Hooks{})
	costs := []sim.Duration{97, 251, 13, 1009, 499, 7}
	for i, c := range costs {
		f.s.Enqueue(op(stats.OpCleanCopy, stats.Cleaning, c, i%4))
	}
	end := sim.Time(5000)
	f.s.Run(0, 1100)
	f.s.Preempt(1300) // host access [1100, 1300)
	f.s.Run(1300, end)
	// The host access occupied [1100,1300); the scheduler accounts for
	// everything else.
	if total := f.bd.Total(); total != sim.Duration(end)-200 {
		t.Errorf("breakdown total = %d, want %d", total, int64(end)-200)
	}
	if f.s.Len() != 0 {
		t.Errorf("%d ops unfinished", f.s.Len())
	}
	if err := f.s.SelfCheck(); err != nil {
		t.Error(err)
	}
}

// TestFlushLaneBound checks that flushLanes caps concurrent flush
// programs without limiting other work: with 4 lanes but 1 flush
// lane, an erase co-runs with one flush while the second flush waits.
func TestFlushLaneBound(t *testing.T) {
	banks := flash.NewBankSet(4)
	bd, os := &stats.Breakdown{}, &stats.OpStats{}
	s := New(4, 1, 2*sim.Microsecond, banks, bd, os, Hooks{})
	var order []string
	mk := func(name string, kind stats.OpKind, act stats.Activity, cost sim.Duration, bank int) *Op {
		o := op(kind, act, cost, bank)
		o.Done = func() { order = append(order, name) }
		return o
	}
	s.Enqueue(mk("flushA", stats.OpFlush, stats.Flushing, 100, 0))
	s.Enqueue(mk("flushB", stats.OpFlush, stats.Flushing, 100, 1))
	s.Enqueue(mk("erase", stats.OpErase, stats.Erasing, 100, 2))
	s.Run(0, 100)
	// flushA and the erase overlap; flushB waited for the flush lane.
	if len(order) != 2 || order[0] != "flushA" || order[1] != "erase" {
		t.Fatalf("completions after 100ns = %v, want [flushA erase]", order)
	}
	s.Run(100, 200)
	if len(order) != 3 || order[2] != "flushB" {
		t.Errorf("completions after 200ns = %v, want flushB last", order)
	}
	if err := s.SelfCheck(); err != nil {
		t.Error(err)
	}
}

// TestTickHook verifies the injector hook sees the cursor advance.
func TestTickHook(t *testing.T) {
	var ticks []sim.Time
	hooks := Hooks{Tick: func(t sim.Time) { ticks = append(ticks, t) }}
	f := newFixture(1, 2, hooks)
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 100, 0))
	f.s.Run(0, 200)
	if len(ticks) == 0 || ticks[0] != 0 {
		t.Fatalf("ticks = %v, want first at 0", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] < ticks[i-1] {
			t.Errorf("tick went backwards: %v", ticks)
		}
	}
}

func TestOverlapSuspendsOnlyAccessedBank(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 0))
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 1))
	f.s.Run(0, 40) // both mid-flight, 60 remaining each

	// Host access to bank 0 for 70 ns: the bank-0 flush suspends, the
	// bank-1 flush progresses through the window and completes.
	f.s.Overlap(0, sim.Time(0).Add(110))
	c := f.os.Get(stats.OpFlush)
	if c.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (bank-1 flush finishes inside the window)", c.Completed)
	}
	if c.Suspensions != 1 {
		t.Errorf("suspensions = %d, want 1 (bank-0 flush only)", c.Suspensions)
	}
	if f.s.Cursor() != sim.Time(0).Add(110) {
		t.Errorf("cursor = %v, want 110", f.s.Cursor())
	}
	// A later overlap window on another bank resumes the parked flush
	// autonomously, adding the resume delay to its own remaining cost —
	// 30 ns of window against 60+2000 ns leaves it incomplete.
	f.s.Overlap(-1, sim.Time(0).Add(140))
	c = f.os.Get(stats.OpFlush)
	if c.Completed != 1 {
		t.Fatalf("op with a pending resume delay completed inside a 30ns window (completed=%d)", c.Completed)
	}
	if c.Resumes != 1 {
		t.Errorf("resumes = %d, want 1 (autonomous restart in the overlap window)", c.Resumes)
	}
	// A quiet window finishes the rest without a second resume.
	f.s.Run(sim.Time(0).Add(140), sim.Time(0).Add(140+2000+100))
	c = f.os.Get(stats.OpFlush)
	if c.Completed != 2 || c.Resumes != 1 {
		t.Errorf("after quiet window: %+v, want Completed=2 Resumes=1", c)
	}
}

func TestOverlapBankMinusOneSuspendsNothing(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 80, 2))
	// SRAM access (bank -1): the erase runs straight through.
	f.s.Overlap(-1, sim.Time(0).Add(100))
	c := f.os.Get(stats.OpErase)
	if c.Completed != 1 || c.Suspensions != 0 {
		t.Errorf("erase counters = %+v, want Completed=1 Suspensions=0", c)
	}
	// The erase's 80 ns are charged on top of whatever the host was
	// charged for the same window — per-resource accounting.
	if got := f.bd.Get(stats.Erasing); got != 80 {
		t.Errorf("erasing charge = %d, want 80", got)
	}
	if got := f.bd.Get(stats.Idle); got != 0 {
		t.Errorf("idle charge = %d, want 0 (overlap windows charge no idle)", got)
	}
	if err := f.s.SelfCheck(); err != nil {
		t.Error(err)
	}
}

func TestOverlapStartsQueuedOpMidWindow(t *testing.T) {
	// Two ops on the same bank: the first completes mid-window and the
	// second starts at that instant, still inside the host access.
	f := newFixture(2, 4, Hooks{})
	f.s.Enqueue(op(stats.OpCleanCopy, stats.Cleaning, 30, 1))
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 50, 1))
	f.s.Overlap(0, sim.Time(0).Add(100))
	if got := f.os.Get(stats.OpCleanCopy).Completed; got != 1 {
		t.Errorf("copy completed = %d, want 1", got)
	}
	if got := f.os.Get(stats.OpErase).Completed; got != 1 {
		t.Errorf("erase completed = %d, want 1 (successor started mid-window)", got)
	}
	if f.s.Len() != 0 {
		t.Errorf("%d ops left", f.s.Len())
	}
}

func TestDepthGauge(t *testing.T) {
	var g stats.DepthGauge
	at := func(ns int64) sim.Time { return sim.Time(0).Add(sim.Duration(ns)) }
	g.Set(at(0), 1)
	g.Set(at(100), 3) // depth 1 for 100 ns
	g.Set(at(200), 0) // depth 3 for 100 ns
	if got := g.Mean(at(400)); got != (1*100.0+3*100.0)/400.0 {
		t.Errorf("Mean = %v, want 1.0", got)
	}
	if g.Max() != 3 {
		t.Errorf("Max = %d, want 3", g.Max())
	}
	g.Reset()
	if g.Mean(at(500)) != 0 || g.Max() != 0 {
		t.Error("Reset did not clear the gauge")
	}
}

// TestParkedPreemptOnlyMovesCursor drives random enqueue / run /
// preempt / overlap sequences, at one lane and at several, and checks
// the memo behind Preempt's fast path: whenever Parked() holds, a full
// Preempt — the pick and the suspensions, not the shortcut — would
// change nothing but the cursor. The reference is a twin scheduler fed
// the same sequence whose memo is cleared before every Preempt.
func TestParkedPreemptOnlyMovesCursor(t *testing.T) {
	kinds := []struct {
		kind stats.OpKind
		act  stats.Activity
	}{
		{stats.OpFlush, stats.Flushing},
		{stats.OpCleanCopy, stats.Cleaning},
		{stats.OpErase, stats.Erasing},
	}
	type opState struct { // an Op minus its callbacks, which do not compare
		kind               stats.OpKind
		remaining          sim.Duration
		bank               int
		id                 int64
		claimed, suspended bool
		suspendedAt        sim.Time
	}
	type state struct {
		cursor sim.Time
		bd     stats.Breakdown
		os     stats.OpStats
		ops    []opState
		owners []int64
	}
	snap := func(f *fixture, banks int) state {
		st := state{cursor: f.s.Cursor(), bd: *f.bd, os: *f.os}
		for _, o := range f.s.queue {
			st.ops = append(st.ops, opState{o.Kind, o.Remaining, o.Bank, o.id, o.claimed, o.suspended, o.suspendedAt})
		}
		for b := 0; b < banks; b++ {
			st.owners = append(st.owners, f.s.banks.Owner(b))
		}
		return st
	}
	equal := func(a, b state) bool {
		if a.cursor != b.cursor || a.bd != b.bd || a.os != b.os || len(a.ops) != len(b.ops) {
			return false
		}
		for i := range a.ops {
			if a.ops[i] != b.ops[i] {
				return false
			}
		}
		for i := range a.owners {
			if a.owners[i] != b.owners[i] {
				return false
			}
		}
		return true
	}
	for _, lanes := range []int{1, 2, 4} {
		const banks = 4
		rng := sim.NewRNG(uint64(lanes) * 77)
		memo, ref := newFixture(lanes, banks, Hooks{}), newFixture(lanes, banks, Hooks{})
		var now sim.Time
		parkedSeen := 0
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(10); {
			case r < 2:
				k := kinds[rng.Intn(len(kinds))]
				cost, bank := sim.Duration(rng.Intn(400)), rng.Intn(banks)
				memo.s.Enqueue(op(k.kind, k.act, cost, bank))
				ref.s.Enqueue(op(k.kind, k.act, cost, bank))
			case r < 4:
				until := now.Add(sim.Duration(rng.Intn(20000)))
				memo.s.Run(now, until)
				ref.s.Run(now, until)
				now = until
			case r < 5:
				bank := rng.Intn(banks+1) - 1
				now = now.Add(sim.Duration(1 + rng.Intn(300)))
				memo.s.Overlap(bank, now)
				ref.s.Overlap(bank, now)
			default:
				now = now.Add(sim.Duration(1 + rng.Intn(200)))
				if memo.s.Parked() {
					parkedSeen++
				}
				memo.s.Preempt(now)
				ref.s.parked = false
				ref.s.Preempt(now)
			}
			if a, b := snap(memo, banks), snap(ref, banks); !equal(a, b) {
				t.Fatalf("lanes=%d step %d: memoised scheduler diverged from the reference\nmemo %+v\nref  %+v", lanes, step, a, b)
			}
			if err := memo.s.SelfCheck(); err != nil {
				t.Fatalf("lanes=%d step %d: %v", lanes, step, err)
			}
		}
		if parkedSeen == 0 {
			t.Errorf("lanes=%d: the sequence never preempted a parked scheduler", lanes)
		}
	}
}
