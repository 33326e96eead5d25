// Host queue boundary tests: the multi-outstanding request engine at
// its edges. Depth 1 must reproduce the classic synchronous timeline
// bit-identically (the golden fixtures), a full queue must
// back-pressure instead of growing, and the write fence must order
// same-page accesses — also under the race detector with concurrent
// submitters, with and without a crash armed mid-run.
//
// CI runs this file standalone as the multi-initiator torture step:
//
//	go test -race -run 'TestHostQueue|TestFlushCleanOverlap' .
package envy_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"envy"
	"envy/internal/sim"
)

// hostQueueScenario is goldenScenarioSkewed with the single-word reads
// and writes routed through Submit/Wait instead of the synchronous
// methods. At HostQueueDepth 1 the queue degenerates to the paper's
// single-outstanding host, so the resulting snapshot — clock, latency
// hash, every counter — must match the pinned fixtures bit for bit.
func hostQueueScenario(t *testing.T, cfg envy.Config, seed uint64, ops int, hotFrac float64) goldenSnapshot {
	t.Helper()
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	size := uint64(dev.Size())
	words := size / 4
	var hash uint64
	addr := func() uint64 {
		if hotFrac > 0 && rng.Float64() < 0.98 {
			hot := uint64(float64(words) * hotFrac)
			if hot == 0 {
				hot = 1
			}
			return rng.Uint64n(hot) * 4
		}
		return rng.Uint64n(words) * 4
	}
	submitWord := func(write bool, a uint64, v uint32) (time.Duration, error) {
		r := &envy.Request{Write: write, Addr: a, Data: make([]byte, 4)}
		if write {
			binary.LittleEndian.PutUint32(r.Data, v)
		}
		if err := dev.Submit(r); err != nil {
			return 0, err
		}
		if err := dev.Wait(r); err != nil {
			return 0, err
		}
		return r.Latency, nil
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			lat, err := submitWord(true, addr(), uint32(rng.Uint64()))
			if err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 75:
			lat, err := submitWord(false, addr(), 0)
			if err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 85:
			var buf [16]byte
			a := addr()
			if a+16 > size {
				a = size - 16
			}
			lat, err := dev.ReadErr(buf[:], a)
			if err != nil {
				t.Fatalf("op %d: block read: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 93:
			dev.Idle(time.Duration(1+rng.Intn(20)) * time.Microsecond)
		default:
			if err := dev.Begin(); err != nil {
				t.Fatalf("op %d: begin: %v", i, err)
			}
			for j := 0; j < 3; j++ {
				lat, err := dev.WriteWordErr(addr(), uint32(rng.Uint64()))
				if err != nil {
					t.Fatalf("op %d: txn write: %v", i, err)
				}
				hash = fnv1a(hash, uint64(lat))
			}
			if err := dev.Commit(); err != nil {
				t.Fatalf("op %d: commit: %v", i, err)
			}
		}
		if i%1024 == 1023 {
			dev.PowerCycle()
		}
	}
	dev.Idle(2 * time.Millisecond)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-workload consistency: %v", err)
	}
	return snapshot(dev, hash)
}

// TestHostQueueGoldenDepthOne replays every golden fixture's workload
// through the request queue at depth 1 and demands the
// exact snapshot the synchronous path pinned. This is the boundary the
// whole engine preserves: queueing is purely additive.
func TestHostQueueGoldenDepthOne(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures are owned by the TestGolden tests; not rewriting from the queue path")
	}
	scenarios := []struct {
		name    string
		cfg     envy.Config
		seed    uint64
		ops     int
		hotFrac float64
	}{
		{"hybrid", goldenConfig(envy.HybridPolicy), 0x5eed1, 6000, 0},
		{"greedy", goldenConfig(envy.GreedyPolicy), 0x5eed2, 6000, 0},
		{"smallconfig", func() envy.Config {
			cfg := envy.SmallConfig()
			cfg.BufferPages = 256
			return cfg
		}(), 0x5eed3, 4000, 0},
		{"wear", envy.Config{
			PageSize:        256,
			PagesPerSegment: 32,
			Segments:        8,
			Banks:           4,
			Policy:          envy.HybridPolicy,
			// Same tuning as TestGoldenWear: locality gathering plus a
			// hair-trigger threshold so wear swaps stay on the timeline.
			PartitionSegments: 1,
			WearThreshold:     2,
			BufferPages:       16,
		}, 0x5eed4, 12000, 0.25},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.HostQueueDepth = 1
			got := hostQueueScenario(t, cfg, sc.seed, sc.ops, sc.hotFrac)
			raw, err := os.ReadFile(filepath.Join("testdata", "golden", sc.name+".json"))
			if err != nil {
				t.Fatalf("missing golden fixture: %v", err)
			}
			var want goldenSnapshot
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("depth-1 queue timeline diverged from golden fixture %s:\n got %+v\nwant %+v", sc.name, got, want)
			}
		})
	}
}

// TestHostQueueBackPressure submits far more requests than the queue
// holds without ever waiting: Submit must absorb the excess by
// servicing older requests in simulated time, keeping the outstanding
// count at or below the configured depth, and every request must still
// complete in arrival order per page.
func TestHostQueueBackPressure(t *testing.T) {
	cfg := goldenConfig(envy.HybridPolicy)
	cfg.HostQueueDepth = 2
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	reqs := make([]*envy.Request, n)
	for i := range reqs {
		r := &envy.Request{Write: true, Addr: uint64(i) * 256, Data: make([]byte, 4)}
		binary.LittleEndian.PutUint32(r.Data, uint32(i))
		if err := dev.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if out := dev.Outstanding(); out > cfg.HostQueueDepth {
			t.Fatalf("after submit %d: %d outstanding, queue depth is %d", i, out, cfg.HostQueueDepth)
		}
		reqs[i] = r
	}
	dev.Drain()
	if out := dev.Outstanding(); out != 0 {
		t.Fatalf("%d requests outstanding after Drain", out)
	}
	var last time.Duration
	for i, r := range reqs {
		select {
		case <-r.Done():
		default:
			t.Fatalf("request %d not complete after Drain", i)
		}
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Completion < last {
			t.Fatalf("request %d completed at %v, before request %d at %v", i, r.Completion, i-1, last)
		}
		last = r.Completion
	}
	// Resubmitting a completed request must be rejected, not re-queued.
	if err := dev.Submit(reqs[0]); err == nil {
		t.Fatal("resubmit of a completed request succeeded")
	}
}

// TestHostQueueWriteFence pins the same-page ordering constraint: a
// write to page P fences all later accesses to P, so two writes and a
// read to one page must complete in submission order and the read must
// observe the second value, even with reads allowed to pass reads.
func TestHostQueueWriteFence(t *testing.T) {
	cfg := goldenConfig(envy.HybridPolicy)
	cfg.HostQueueDepth = 8
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const addr = 4096
	mk := func(write bool, v uint32) *envy.Request {
		r := &envy.Request{Write: write, Addr: addr, Data: make([]byte, 4)}
		if write {
			binary.LittleEndian.PutUint32(r.Data, v)
		}
		return r
	}
	w1, w2, rd := mk(true, 0x11111111), mk(true, 0x22222222), mk(false, 0)
	for i, r := range []*envy.Request{w1, w2, rd} {
		if err := dev.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	dev.Drain()
	for i, r := range []*envy.Request{w1, w2, rd} {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if got := binary.LittleEndian.Uint32(rd.Data); got != 0x22222222 {
		t.Fatalf("read after WAW observed %#x, want the second write's value", got)
	}
	if w2.Start < w1.Completion {
		t.Fatalf("second write started at %v, before the first completed at %v", w2.Start, w1.Completion)
	}
	if rd.Start < w2.Completion {
		t.Fatalf("fenced read started at %v, before the write completed at %v", rd.Start, w2.Completion)
	}
}

// TestHostQueueConcurrentSubmitters hammers one device from many
// goroutines, each owning a disjoint page range: every goroutine
// writes and reads back its own pages through Submit/Wait. Run under
// -race this is the multi-initiator torture test — it proves Submit's
// validation touches no mutable device state outside the mutex; the
// value check doubles as a same-page write-after-write ordering check
// per goroutine.
func TestHostQueueConcurrentSubmitters(t *testing.T) {
	cfg := goldenConfig(envy.HybridPolicy)
	cfg.HostQueueDepth = 4
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 64
	)
	pagesPer := uint64(dev.Size()) / 256 / workers
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			base := uint64(w) * pagesPer * 256
			for i := 0; i < rounds; i++ {
				a := base + rng.Uint64n(pagesPer)*256
				want := uint32(w)<<16 | uint32(i)
				wr := &envy.Request{Write: true, Addr: a, Data: make([]byte, 4)}
				binary.LittleEndian.PutUint32(wr.Data, want)
				rd := &envy.Request{Addr: a, Data: make([]byte, 4)}
				if err := dev.Submit(wr); err != nil {
					errs <- fmt.Errorf("worker %d: submit write: %v", w, err)
					return
				}
				if err := dev.Submit(rd); err != nil {
					errs <- fmt.Errorf("worker %d: submit read: %v", w, err)
					return
				}
				if err := dev.Wait(rd); err != nil {
					errs <- fmt.Errorf("worker %d: read: %v", w, err)
					return
				}
				if err := dev.Wait(wr); err != nil {
					errs <- fmt.Errorf("worker %d: write: %v", w, err)
					return
				}
				if got := binary.LittleEndian.Uint32(rd.Data); got != want {
					errs <- fmt.Errorf("worker %d round %d: read %#x, want %#x", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	dev.Drain()
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-hammer consistency: %v", err)
	}
}

// hostQueueHammerConfig is the concurrency-test geometry at queue depth
// 8 with one flush lane per bank.
func hostQueueHammerConfig() envy.Config {
	cfg := concurrencyConfig()
	cfg.ParallelFlush = cfg.Banks
	cfg.HostQueueDepth = 8
	return cfg
}

// submitHammer drives racing submitters through the public queue:
// workers submit word reads and writes over their own stripes, an observer snapshots Stats, and the main goroutine drains.
// Verification is read-after-write per stripe, same as the synchronous
// hammer. Returns whether the device crashed mid-run (for the
// crash-arm variant).
func submitHammer(t *testing.T, dev *envy.Device, workers, opsPerWorker int, tolerateCrash bool) bool {
	t.Helper()
	stripe := uint64(4096)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * stripe
			buf := make([]byte, 4)
			for i := 0; i < opsPerWorker; i++ {
				addr := base + uint64(i*132)%stripe
				want := byte(w<<4) ^ byte(i)
				wr := &envy.Request{Write: true, Addr: addr, Data: []byte{want, want, want, want}}
				if err := dev.Submit(wr); err != nil {
					t.Errorf("worker %d: submit write %#x: %v", w, addr, err)
					return
				}
				if err := dev.Wait(wr); err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: write %#x: %v", w, addr, err)
					return
				}
				rd := &envy.Request{Addr: addr, Data: buf}
				if err := dev.Submit(rd); err != nil {
					t.Errorf("worker %d: submit read %#x: %v", w, addr, err)
					return
				}
				if err := dev.Wait(rd); err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: read %#x: %v", w, addr, err)
					return
				}
				if buf[0] != want {
					t.Errorf("worker %d: read %#x = %#x, want %#x", w, addr, buf[0], want)
					return
				}
			}
		}(w)
	}
	// Stats and queue-introspection observer: must be race-free against
	// the submitters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < opsPerWorker; i++ {
			s := dev.Stats()
			if s.Writes < 0 || s.HostRequests < 0 {
				t.Error("observer: negative counter")
				return
			}
			_ = dev.Outstanding()
			if i%16 == 0 {
				dev.Idle(100_000)
			}
		}
	}()
	wg.Wait()
	dev.Drain()
	return dev.Crashed()
}

func TestHostQueueSubmitHammer(t *testing.T) {
	dev, err := envy.New(hostQueueHammerConfig())
	if err != nil {
		t.Fatal(err)
	}
	submitHammer(t, dev, 8, 200, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-hammer consistency: %v", err)
	}
	s := dev.Stats()
	if s.Reads == 0 || s.Writes == 0 {
		t.Fatalf("hammer recorded no traffic: %+v", s)
	}
}

// TestHostQueueCrashArmHammer arms a crash plan under the racing
// submitters, then recovers and hammers again: a crash surfacing in one
// caller's Wait must fail the others cleanly, and the recovered device
// must take the same traffic again.
func TestHostQueueCrashArmHammer(t *testing.T) {
	cfg := hostQueueHammerConfig()
	cfg.FaultPlan = &envy.FaultPlan{Program: 40, Seed: 0x9e3779b97f4a7c15}
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !submitHammer(t, dev, 8, 200, true) {
		t.Fatal("fault plan never fired during the submit hammer")
	}
	if _, err := dev.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery consistency: %v", err)
	}
	submitHammer(t, dev, 4, 80, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery hammer consistency: %v", err)
	}
}

// TestFlushCleanOverlap drives enough write pressure through per-bank
// parallel flushing that cleaning copies overlap flush programming on
// distinct banks, and checks the scheduler's overlap accumulator saw
// it — the observable behind the §6 concurrency claim.
func TestFlushCleanOverlap(t *testing.T) {
	cfg := hostQueueHammerConfig()
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	size := uint64(dev.Size())
	for i := uint64(0); i < 3*size/128; i++ {
		page[0] = byte(i)
		addr := (i * 128) % size
		w := &envy.Request{Write: true, Addr: addr, Data: page}
		if err := dev.Submit(w); err != nil {
			t.Fatal(err)
		}
		if err := dev.Wait(w); err != nil {
			t.Fatal(err)
		}
	}
	dev.Drain()
	s := dev.Stats()
	if s.CleanCopies == 0 || s.Flushes == 0 {
		t.Fatalf("write pressure produced no cleaning traffic: %+v", s)
	}
	if s.FlushCleanOverlap <= 0 {
		t.Fatalf("cleaning copies never overlapped flush programming (overlap %v, %d flushes, %d clean copies)",
			s.FlushCleanOverlap, s.Flushes, s.CleanCopies)
	}
}
