package host

import (
	"errors"
	"fmt"
	"testing"

	"envy/internal/sim"
)

// fakeBE is a scripted backend: reads cost readCost, writes cost
// writeCost, and while blocked is set writes stall until unblockIn of
// background progress has been made (RunBackgroundStep or the inline
// stall inside WriteErr).
type fakeBE struct {
	now       sim.Time
	readCost  sim.Duration
	writeCost sim.Duration
	blocked   bool
	unblockIn sim.Duration
	log       []string
	err       error // returned by every access when set
}

func newFake() *fakeBE { return &fakeBE{readCost: 100, writeCost: 200} }

func (f *fakeBE) Now() sim.Time { return f.now }

func (f *fakeBE) ReadErr(p []byte, addr uint64) (sim.Duration, error) {
	f.now = f.now.Add(f.readCost)
	f.log = append(f.log, fmt.Sprintf("r%d", addr))
	return f.readCost, f.err
}

func (f *fakeBE) WriteErr(p []byte, addr uint64) (sim.Duration, error) {
	lat := f.writeCost
	if f.blocked {
		// Inline §5.4 stall: the controller waits the buffer out.
		lat += f.unblockIn
		f.now = f.now.Add(f.unblockIn)
		f.unblockIn = 0
		f.blocked = false
	}
	f.now = f.now.Add(f.writeCost)
	f.log = append(f.log, fmt.Sprintf("w%d", addr))
	return lat, f.err
}

func (f *fakeBE) WriteWouldBlock(addr uint64, n int) bool { return f.blocked }

func (f *fakeBE) RunBackgroundStep(limit sim.Time) bool {
	if !f.blocked || f.unblockIn == 0 {
		return false
	}
	step := f.unblockIn
	if limit > 0 && f.now.Add(step) > limit {
		step = limit.Sub(f.now)
	}
	if step <= 0 {
		return false
	}
	f.now = f.now.Add(step)
	f.unblockIn -= step
	if f.unblockIn == 0 {
		f.blocked = false
	}
	return true
}

const ps = 256 // page size for all tests

func rd(page int) *Request {
	return &Request{Addr: uint64(page * ps), Data: make([]byte, 4)}
}

func wr(page int) *Request {
	return &Request{Write: true, Addr: uint64(page * ps), Data: make([]byte, 4)}
}

func TestDepth1Synchronous(t *testing.T) {
	f := newFake()
	e := New(f, 1, ps)
	r := rd(0)
	e.Submit(r)
	if !r.Completed() {
		t.Fatal("depth-1 submit did not service synchronously")
	}
	if r.Arrival != 0 || r.Start != 0 || r.Completion != sim.Time(100) {
		t.Errorf("timestamps = %v/%v/%v, want 0/0/100", r.Arrival, r.Start, r.Completion)
	}
	if r.Latency() != 100 {
		t.Errorf("Latency = %v, want 100", r.Latency())
	}
	w := wr(1)
	e.Submit(w)
	if !w.Completed() || e.Outstanding() != 0 {
		t.Error("depth-1 write not synchronous")
	}
	if e.Served() != 2 {
		t.Errorf("Served = %d, want 2", e.Served())
	}
}

func TestDepth1TakesStallInline(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 1, ps)
	w := wr(0)
	e.Submit(w)
	if !w.Completed() {
		t.Fatal("blocked write not serviced at depth 1")
	}
	if w.Latency() != 1200 { // 1000 stall + 200 write
		t.Errorf("stalled write latency = %v, want 1200", w.Latency())
	}
}

func TestReadsPassBlockedWrite(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 4, ps)
	w := wr(0)
	r1, r2 := rd(1), rd(2)
	e.Submit(w)
	e.Submit(r1)
	e.Submit(r2)
	if w.Completed() {
		t.Fatal("blocked write was serviced eagerly")
	}
	if !r1.Completed() || !r2.Completed() {
		t.Fatal("reads did not pass the blocked write")
	}
	e.Drain()
	if !w.Completed() {
		t.Fatal("Drain left the write unserviced")
	}
	want := []string{"r256", "r512", "w0"}
	if len(f.log) != 3 || f.log[0] != want[0] || f.log[1] != want[1] || f.log[2] != want[2] {
		t.Errorf("service order = %v, want %v", f.log, want)
	}
	if w.Start.Sub(r2.Completion) < 0 {
		t.Errorf("write started at %v before reads finished at %v", w.Start, r2.Completion)
	}
	// The write's sojourn includes its queueing time.
	if w.Latency() <= r1.Latency() {
		t.Errorf("deferred write latency %v not above read latency %v", w.Latency(), r1.Latency())
	}
}

func TestWriteFencesSamePage(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 4, ps)
	w := wr(0)
	rSame := rd(0)  // fenced: overlaps the earlier write
	rOther := rd(7) // free to pass
	e.Submit(w)
	e.Submit(rSame)
	e.Submit(rOther)
	if rSame.Completed() {
		t.Fatal("read passed an earlier write to the same page")
	}
	if !rOther.Completed() {
		t.Fatal("disjoint read did not pass")
	}
	e.Drain()
	want := []string{"r1792", "w0", "r0"}
	if fmt.Sprint(f.log) != fmt.Sprint(want) {
		t.Errorf("service order = %v, want %v", f.log, want)
	}
}

func TestWriteAfterWriteSamePageOrders(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 500
	e := New(f, 4, ps)
	w1, w2 := wr(3), wr(3)
	e.Submit(w1)
	e.Submit(w2)
	e.Drain()
	if fmt.Sprint(f.log) != fmt.Sprint([]string{"w768", "w768"}) {
		t.Fatalf("service order = %v", f.log)
	}
	if w2.Start.Sub(w1.Completion) < 0 {
		t.Errorf("second write started at %v before first completed at %v", w2.Start, w1.Completion)
	}
}

func TestReadsPassReadsSamePage(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 4, ps)
	wOther := wr(9)
	r1, r2 := rd(2), rd(2)
	e.Submit(wOther)
	e.Submit(r1)
	e.Submit(r2)
	if !r1.Completed() || !r2.Completed() {
		t.Fatal("overlapping reads did not both pass the blocked write")
	}
	e.Drain()
}

func TestBackPressureAtCapacity(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 2, ps)
	w1, w2 := wr(0), wr(1)
	e.Submit(w1)
	e.Submit(w2)
	if e.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2 (both writes blocked)", e.Outstanding())
	}
	// The queue is full: this submission must back-pressure, forcing
	// the blocked writes through before the read is admitted.
	r := rd(5)
	e.Submit(r)
	if !w1.Completed() {
		t.Error("back-pressure did not force the head write")
	}
	if e.Outstanding() > 2 {
		t.Errorf("outstanding = %d exceeds depth 2", e.Outstanding())
	}
	if !r.Completed() {
		t.Error("read not serviced after admission")
	}
	if e.MaxDepth() > 2 {
		t.Errorf("MaxDepth = %d exceeds capacity", e.MaxDepth())
	}
}

func TestRunUntilBounded(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 4, ps)
	w := wr(0)
	e.Submit(w)
	// Idle window too short to unblock: the clock advances exactly to
	// the bound and the write stays queued.
	e.RunUntil(sim.Time(400))
	if f.now != 400 {
		t.Fatalf("clock = %v, want 400", f.now)
	}
	if w.Completed() {
		t.Fatal("write serviced before the buffer drained")
	}
	// A window past the unblock point services it.
	e.RunUntil(sim.Time(5000))
	if !w.Completed() {
		t.Fatal("write not serviced once background work finished")
	}
	if f.now >= 5000 {
		t.Errorf("clock = %v; RunUntil should stop once the queue empties", f.now)
	}
}

func TestServeUntilDone(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 1000
	e := New(f, 4, ps)
	w, r := wr(0), rd(0)
	e.Submit(w)
	e.Submit(r) // fenced behind w
	e.ServeUntilDone(r)
	if !w.Completed() || !r.Completed() {
		t.Fatal("ServeUntilDone left requests pending")
	}
	defer func() {
		if recover() == nil {
			t.Error("waiting on a never-submitted request did not panic")
		}
	}()
	e.ServeUntilDone(rd(1))
}

func TestOnCompleteAndHistograms(t *testing.T) {
	f := newFake()
	e := New(f, 2, ps)
	fired := 0
	r := rd(0)
	r.OnComplete = func(req *Request) {
		if req != r {
			t.Error("OnComplete got the wrong request")
		}
		fired++
	}
	e.Submit(r)
	e.Submit(wr(1))
	e.Drain()
	if fired != 1 {
		t.Errorf("OnComplete fired %d times, want 1", fired)
	}
	if n := e.Latency().Count(); n != 2 {
		t.Errorf("latency count = %d, want 2", n)
	}
	if e.ReadLatency().Count() != 1 || e.WriteLatency().Count() != 1 {
		t.Error("per-kind histograms miscounted")
	}
	if p := e.Latency().Percentile(50); p <= 0 {
		t.Errorf("p50 = %v, want > 0", p)
	}
}

func TestErrorPropagates(t *testing.T) {
	f := newFake()
	f.err = errors.New("boom")
	e := New(f, 2, ps)
	r := rd(0)
	e.Submit(r)
	e.Drain()
	if r.Err == nil || r.Err.Error() != "boom" {
		t.Errorf("Err = %v, want boom", r.Err)
	}
}

func TestResubmitPanics(t *testing.T) {
	f := newFake()
	e := New(f, 1, ps)
	r := rd(0)
	e.Submit(r)
	defer func() {
		if recover() == nil {
			t.Error("resubmitting a completed request did not panic")
		}
	}()
	e.Submit(r)
}

func TestMeanDepthTracksQueue(t *testing.T) {
	f := newFake()
	f.blocked = true
	f.unblockIn = 10000
	e := New(f, 4, ps)
	e.Submit(wr(0))
	e.RunUntil(sim.Time(5000)) // one request outstanding for 5 µs
	if got := e.MeanDepth(); got < 0.9 || got > 1.1 {
		t.Errorf("MeanDepth = %v, want ~1", got)
	}
	e.Drain()
	if e.MaxDepth() != 1 {
		t.Errorf("MaxDepth = %d, want 1", e.MaxDepth())
	}
}

// suspBE is fakeBE with the suspension counter the adaptive controller
// reads: every access adds perOp suspensions.
type suspBE struct {
	*fakeBE
	susp, perOp int64
}

func (b *suspBE) ReadErr(p []byte, addr uint64) (sim.Duration, error) {
	b.susp += b.perOp
	return b.fakeBE.ReadErr(p, addr)
}

func (b *suspBE) Suspensions() int64 { return b.susp }

// TestResetStatsRebasesAdaptive pins the adaptive controller across a
// statistics reset: the backend zeroes its suspension counter, so the
// engine must re-base its differencing point and its throttle low-water
// mark, or the next window sees a negative rate (a spurious step up)
// and MinEffectiveDepth keeps reporting the warm-up.
func TestResetStatsRebasesAdaptive(t *testing.T) {
	be := &suspBE{fakeBE: newFake()}
	e := New(be, 4, ps)
	if !e.EnableAdaptive() {
		t.Fatal("backend exposes Suspensions; EnableAdaptive must accept it")
	}
	window := func(perOp int64) {
		be.perOp = perOp
		for i := 0; i < adaptWindow; i++ {
			e.Submit(rd(i))
		}
	}
	window(2) // rate 2 > adaptHigh: 4 → 3
	window(2) // 3 → 2
	window(0) // rate 0 < adaptLow: relax to 3
	if e.EffectiveDepth() != 3 || e.MinEffectiveDepth() != 2 {
		t.Fatalf("warm-up left depth %d (min %d), want 3 (min 2)", e.EffectiveDepth(), e.MinEffectiveDepth())
	}
	be.susp = 0 // the device's ResetStats, which both callers run first
	e.ResetStats()
	if e.MinEffectiveDepth() != e.EffectiveDepth() {
		t.Errorf("after ResetStats MinEffectiveDepth = %d, want the current depth %d", e.MinEffectiveDepth(), e.EffectiveDepth())
	}
	window(1) // rate 1 sits between the thresholds: the depth must hold
	if got := e.EffectiveDepth(); got != 3 {
		t.Errorf("first window after ResetStats moved the depth to %d, want 3 held", got)
	}
}
