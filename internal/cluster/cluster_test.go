package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"envy"
	"envy/internal/sim"
	"envy/internal/workload"
)

func testCluster(t *testing.T, members int) *Cluster {
	t.Helper()
	c, err := New(Config{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterRoutingBalance(t *testing.T) {
	c := testCluster(t, 4)
	mean := float64(c.Pages()) / 4
	st := c.Stats()
	for i, s := range st.Shards {
		if dev := float64(s.Pages)/mean - 1; dev < -0.2 || dev > 0.2 {
			t.Errorf("member %d owns %d pages, %+.1f%% off the mean %0.f", i, s.Pages, dev*100, mean)
		}
	}
	// The directory is total: every page routed exactly once.
	total := 0
	for _, s := range st.Shards {
		total += s.Pages
	}
	if total != c.Pages() {
		t.Errorf("directory covers %d pages, want %d", total, c.Pages())
	}
}

func TestClusterRangeSplit(t *testing.T) {
	c, err := New(Config{Members: 4, Placement: RangeSplit})
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous ranges: member of page p is nondecreasing in p.
	last := uint16(0)
	for p, rt := range c.dir {
		if rt.member < last {
			t.Fatalf("page %d on member %d after member %d", p, rt.member, last)
		}
		last = rt.member
	}
	if int(last) != 3 {
		t.Errorf("last page on member %d, want 3", last)
	}
}

func TestClusterRoutingErrors(t *testing.T) {
	c := testCluster(t, 2)
	ps := uint64(c.PageSize())
	for _, r := range []*Request{
		{Addr: uint64(c.Pages()) * ps, Data: make([]byte, 8)},      // beyond namespace
		{Addr: ps - 4, Data: make([]byte, 8)},                      // crosses page boundary
		{Addr: 0, Data: nil},                                       // empty
		{Addr: 0, Data: make([]byte, c.PageSize()+1), Write: true}, // oversized
	} {
		if err := c.Submit(r); err == nil {
			t.Errorf("Submit(%#x, %d bytes) accepted", r.Addr, len(r.Data))
		}
	}
	r := &Request{Write: true, Addr: 0, Data: make([]byte, 8)}
	if err := c.Submit(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(r); err == nil {
		t.Error("resubmission accepted")
	}
	c.Drain()
}

func TestClusterReadWriteAcrossMembers(t *testing.T) {
	c := testCluster(t, 4)
	const n = 512
	ps := uint64(c.PageSize())
	var reqs []*Request
	for i := 0; i < n; i++ {
		data := make([]byte, 8)
		binary.LittleEndian.PutUint64(data, uint64(i)^0xdead)
		reqs = append(reqs, &Request{Write: true, Addr: uint64(i) * ps, Data: data})
	}
	if err := c.SubmitAll(reqs...); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := c.Wait(r); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	touched := make(map[int]bool)
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		if _, err := c.Read(buf, uint64(i)*ps); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != uint64(i)^0xdead {
			t.Fatalf("page %d: read %#x, want %#x", i, got, uint64(i)^0xdead)
		}
		touched[int(c.dir[i].member)] = true
	}
	if len(touched) != 4 {
		t.Errorf("512 consecutive pages touched only %d of 4 members", len(touched))
	}
	st := c.Stats()
	if st.Acked != int64(n) || st.Failed != 0 {
		t.Errorf("acked %d failed %d, want %d/0", st.Acked, st.Failed, n)
	}
	if err := c.CheckAll(); err != nil {
		t.Error(err)
	}
}

func TestClusterBackpressureSignal(t *testing.T) {
	mc := DefaultMemberConfig()
	mc.HostQueueDepth = 2
	mc.AdaptiveDepth = false
	c, err := New(Config{Members: 2, Member: mc})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.YCSB("a", 1024, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(c, Load{Gen: gen, Rate: 5e6, Ops: 4000, Batch: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backpressured == 0 {
		t.Error("no back-pressure observed at depth 2 under a saturating offered rate")
	}
	if res.Acked != res.Completed || res.Failed != 0 {
		t.Errorf("acked %d of %d completed, %d failed", res.Acked, res.Completed, res.Failed)
	}
}

func TestClusterLoadDeterminism(t *testing.T) {
	run := func() LoadResult {
		c := testCluster(t, 2)
		gen, err := workload.YCSB("b", 2048, 0.99, 17)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunLoad(c, Load{Gen: gen, Rate: 50000, Ops: 3000, Seed: 21, Verify: true, Check: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.LostAcked != 0 {
		t.Errorf("lost %d acknowledged writes with no crash", a.LostAcked)
	}
	if a.TPS <= 0 || a.Completed != int64(a.Offered) {
		t.Errorf("completed %d of %d offered, tps %.0f", a.Completed, a.Offered, a.TPS)
	}
}

func TestClusterCrashRecoverMidLoad(t *testing.T) {
	// A small write buffer keeps flush programs flowing, so the armed
	// Program:1 fault fires genuinely mid-load (not at the forced
	// power-cycle fallback) and the outage window is long enough for
	// the router to reject traffic at the dead shard.
	mc := DefaultMemberConfig()
	mc.BufferPages = 256
	c, err := New(Config{Members: 4, Member: mc})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.YCSB("a", 4096, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(c, Load{
		Gen: gen, Rate: 100000, Ops: 20000, Seed: 5,
		CrashShard: 2, CrashAtOp: 8000, RecoverAtOp: 14000,
		Verify: true, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("crash was never armed")
	}
	if res.RejoinedAt == 0 {
		t.Fatal("member never rejoined")
	}
	if res.LostAcked != 0 {
		t.Errorf("lost %d acknowledged writes across the crash", res.LostAcked)
	}
	if res.Failed+res.Rejected == 0 {
		t.Error("no request failed across a mid-load member crash")
	}
	if res.Acked == 0 || res.Completed != int64(res.Offered) {
		t.Errorf("completed %d of %d (acked %d)", res.Completed, res.Offered, res.Acked)
	}
	st := c.Stats()
	if st.Shards[2].Crashes != 1 || st.Shards[2].Rejoins != 1 {
		t.Errorf("shard 2 lifecycle: %d crashes, %d rejoins, want 1/1", st.Shards[2].Crashes, st.Shards[2].Rejoins)
	}
	if c.Down(2) {
		t.Error("shard 2 still marked down after recovery")
	}
	// Requests routed to the dead member during the outage were
	// rejected with the typed error.
	if st.Shards[2].Rejected == 0 {
		t.Error("no rejected requests on the crashed shard during its outage")
	}
}

func TestClusterShardDownError(t *testing.T) {
	c := testCluster(t, 2)
	c.CrashPowerCycle(1)
	// Find a page on member 1.
	page := -1
	for p, rt := range c.dir {
		if rt.member == 1 {
			page = p
			break
		}
	}
	if page < 0 {
		t.Fatal("no page on member 1")
	}
	r := &Request{Write: true, Addr: uint64(page) * uint64(c.PageSize()), Data: make([]byte, 8)}
	err := c.Submit(r)
	var down *ShardDownError
	if !errors.As(err, &down) || down.Shard != 1 {
		t.Fatalf("Submit to down shard: %v, want *ShardDownError{Shard: 1}", err)
	}
	if !errors.Is(err, envy.ErrCrashed) {
		t.Error("ShardDownError does not unwrap to envy.ErrCrashed")
	}
	if err := c.Wait(r); !errors.As(err, &down) {
		t.Errorf("Wait after local rejection: %v", err)
	}
	select {
	case <-r.Done():
	default:
		t.Error("locally rejected request never completed")
	}
	if _, err := c.Read(make([]byte, 8), uint64(page)*uint64(c.PageSize())); !errors.As(err, &down) {
		t.Errorf("Read from down shard: %v", err)
	}
	if _, err := c.Recover(0); err == nil {
		t.Error("Recover on a healthy member succeeded")
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(r); err == nil {
		t.Error("rejected request resubmitted") // single-use holds across rejection
	}
	r2 := &Request{Write: true, Addr: r.Addr, Data: make([]byte, 8)}
	if err := c.Submit(r2); err != nil {
		t.Fatalf("submit after rejoin: %v", err)
	}
	if err := c.Wait(r2); err != nil {
		t.Fatalf("wait after rejoin: %v", err)
	}
}

// TestClusterConcurrentSubmitters is the race-torture entry point the
// CI matrix runs under GOMAXPROCS {1,8}: several goroutines submit
// Zipfian mixes through the tier concurrently while the main goroutine
// runs one mid-load crash+recover cycle on member 3.
func TestClusterConcurrentSubmitters(t *testing.T) {
	mc := DefaultMemberConfig()
	mc.BufferPages = 256
	c, err := New(Config{Members: 4, Member: mc})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 400
	)
	ps := uint64(c.PageSize())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := workload.YCSB("a", 4096, 0.99, uint64(100+w))
			if err != nil {
				panic(fmt.Sprintf("cluster_test: %v", err))
			}
			for i := 0; i < perW; i++ {
				op := gen.NextOp()
				data := make([]byte, 8)
				if op.Write {
					binary.LittleEndian.PutUint64(data, uint64(w)<<32|uint64(i))
				}
				r := &Request{Write: op.Write, Addr: uint64(op.Page) * ps, Data: data}
				if err := c.Submit(r); err != nil {
					var down *ShardDownError
					if errors.As(err, &down) {
						continue // outage window
					}
					panic(fmt.Sprintf("cluster_test: submit: %v", err))
				}
				if err := c.Wait(r); err != nil {
					var down *ShardDownError
					if !errors.As(err, &down) {
						panic(fmt.Sprintf("cluster_test: wait: %v", err))
					}
				}
			}
		}(w)
	}
	// One crash/recover cycle while the workers hammer the tier. The
	// wait is bounded: if the planned program never happens (workers
	// may finish first), force the power failure so the recover path
	// still runs under contention.
	c.ArmFault(3, envy.FaultPlan{Program: 20})
	for i := 0; i < 200 && !c.Down(3); i++ {
		c.AdvanceTo(c.Now() + time.Millisecond)
	}
	if !c.Down(3) {
		c.CrashPowerCycle(3)
	}
	if _, err := c.Recover(3); err != nil {
		t.Error(err)
	}
	wg.Wait()
	c.Drain()
	if err := c.CheckAll(); err != nil {
		t.Error(err)
	}
	st := c.Stats()
	if st.Completed != st.Submitted {
		t.Errorf("submitted %d, completed %d", st.Submitted, st.Completed)
	}
}

func TestClusterStatsAggregation(t *testing.T) {
	c := testCluster(t, 2)
	gen, err := workload.YCSB("a", 1024, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(c, Load{Gen: gen, Rate: 20000, Ops: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	var sum int64
	for _, s := range st.Shards {
		sum += s.Completed
		if s.EffectiveDepth <= 0 {
			t.Errorf("shard effective depth %d", s.EffectiveDepth)
		}
	}
	if sum != st.Completed || st.Completed != res.Completed {
		t.Errorf("per-shard sum %d, aggregate %d, driver %d", sum, st.Completed, res.Completed)
	}
	if st.Reads == 0 || st.Writes == 0 {
		t.Error("aggregate device counters empty after a mixed load")
	}
	if st.P99 < st.P50 || st.Max < st.P99 {
		t.Errorf("latency aggregate out of order: p50 %v p99 %v max %v", st.P50, st.P99, st.Max)
	}
	c.ResetStats()
	st = c.Stats()
	if st.Completed != 0 || st.Reads != 0 {
		t.Errorf("counters survive ResetStats: %+v", st)
	}
}

func TestClusterDiurnalScheduleRuns(t *testing.T) {
	c := testCluster(t, 2)
	gen, err := workload.YCSB("b", 1024, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	sched := &workload.Diurnal{
		Period: sim.Duration(200 * time.Millisecond), Trough: 0.2, Peak: 2,
		Burst: 2, BurstLen: sim.Duration(20 * time.Millisecond),
	}
	res, err := RunLoad(c, Load{Gen: gen, Rate: 50000, Ops: 3000, Schedule: sched, Seed: 6, Verify: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostAcked != 0 || res.Completed != int64(res.Offered) {
		t.Errorf("diurnal run: %+v", res)
	}
}

// TestClusterSubmitAllAllocs bounds a batch of eight reads spread over
// four members to the caller's own allocation, the Request. Below it
// nothing allocates: not the tier's grouping, member-level requests or
// completion callbacks, not the members' batch slices (device-owned),
// and not a Done channel (made only when Done is called before
// completion, and this caller never calls it).
func TestClusterSubmitAllAllocs(t *testing.T) {
	c := testCluster(t, 4)
	var buf [8][8]byte
	batch := make([]*Request, 8)
	round := func() {
		for i := range batch {
			batch[i] = &Request{Addr: uint64(i*977%c.Pages()) * uint64(c.PageSize()), Data: buf[i][:]}
		}
		if err := c.SubmitAll(batch...); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			if err := c.Wait(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // sizes the pooled scratch
	perRequest := testing.AllocsPerRun(200, round) / float64(len(batch))
	if perRequest > 1 {
		t.Errorf("SubmitAll+Wait allocates %.2f times per request, want at most 1 (the Request)", perRequest)
	}
}
