package main

import (
	"fmt"
	"runtime"
	"time"

	"envy"
	"envy/internal/btree"
	"envy/internal/cleaner"
	"envy/internal/cluster"
	"envy/internal/flash"
	"envy/internal/host"
	"envy/internal/pagetable"
	"envy/internal/sched"
	"envy/internal/sim"
	"envy/internal/sram"
	"envy/internal/stats"
	"envy/internal/workload"
)

// Layer probes drive one layer at a time through its public functions
// and report host cost per call in reference iterations (*_ref) and
// heap allocations per call (*_allocs). They run only in traced runs.

// prober times calls in chunks interleaved with the reference kernel,
// exactly as the workload slices are timed.
type prober struct {
	ref   *refKernel
	quick bool // unit-test scale
}

const (
	probeChunks   = 8
	probeRefIters = 100
)

// calls is how many of the requested calls measure will make: an
// eighth at unit-test scale, rounded to whole chunks.
func (p *prober) calls(requested int) int {
	if p.quick {
		requested /= 8
	}
	return max(requested/probeChunks, 1) * probeChunks
}

// measure runs fn(lo, hi) over probeChunks equal chunks of [0, calls)
// and returns reference iterations and allocations per call.
func (p *prober) measure(calls int, fn func(lo, hi int)) (refs, allocs float64) {
	r := p.measureEach(calls, fn)
	return r[0].refs, r[0].allocs
}

type probeResult struct{ refs, allocs float64 }

// measureEach is measure for several functions run back to back in
// every chunk against one shared stretch of reference kernel, so their
// difference is not at the mercy of what the machine did in between.
func (p *prober) measureEach(calls int, fns ...func(lo, hi int)) []probeResult {
	calls = p.calls(calls)
	chunk := calls / probeChunks
	wallNs := make([]int64, len(fns))
	mallocs := make([]uint64, len(fns))
	var refNs int64
	var ms0, ms1 runtime.MemStats
	for c := 0; c < probeChunks; c++ {
		for k, fn := range fns {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			fn(c*chunk, (c+1)*chunk)
			wallNs[k] += int64(time.Since(t0))
			runtime.ReadMemStats(&ms1)
			mallocs[k] += ms1.Mallocs - ms0.Mallocs
		}
		t1 := time.Now()
		refSink ^= p.ref.run(probeRefIters)
		refNs += int64(time.Since(t1))
	}
	out := make([]probeResult, len(fns))
	for k := range fns {
		out[k] = probeResult{
			refs:   refsPerOp(wallNs[k], refNs, probeChunks*probeRefIters, calls),
			allocs: float64(mallocs[k]) / float64(calls),
		}
	}
	return out
}

// stubBackend is a zero-cost device: the host engine probes measure
// the queue alone.
type stubBackend struct{ now sim.Time }

func (b *stubBackend) Now() sim.Time                                 { return b.now }
func (b *stubBackend) ReadErr([]byte, uint64) (sim.Duration, error)  { return 0, nil }
func (b *stubBackend) WriteErr([]byte, uint64) (sim.Duration, error) { return 0, nil }
func (b *stubBackend) WriteWouldBlock(uint64, int) bool              { return false }
func (b *stubBackend) RunBackgroundStep(sim.Time) bool               { return false }

var probeSink uint64

// pageStream records the page sequence the workload's generator
// produces, for the page-table probes to replay.
func pageStream(w *workloadDef, pages, n int, seed uint64) *workload.Trace {
	var g workload.Generator
	switch w.name {
	case "flood_hotcold":
		g = workload.NewBimodal(sim.Bimodal{HotData: 0.1, HotAccess: 0.9}, pages, seed)
	case "read_zipf_q16":
		g = workload.NewZipfian(pages, 0.99, seed)
	case "cluster4_ycsba":
		g = workload.NewZipfian(pages, 0.9, seed)
	default: // TPC-A picks accounts uniformly
		g = workload.NewUniform(pages, seed)
	}
	return workload.Record(g, n)
}

// probeRun is the state the layer probes share: the workload's page
// stream and the geometry of the devices they build.
type probeRun struct {
	*prober
	out   map[string]float64
	seed  uint64
	cfg   envy.Config
	geo   flash.Geometry
	pages int      // logical pages of a SmallConfig device
	page  []uint32 // the workload's page stream, probeCalls long

	payload []byte // one page
	word    []byte // one 8-byte access
}

// probeCalls is the base call count of a probe; cheap calls run a
// multiple of it.
const probeCalls = 1 << 17

func runProbes(w *workloadDef, p params, out map[string]float64) error {
	cfg := envy.SmallConfig()
	geo := flash.Geometry{PageSize: cfg.PageSize, PagesPerSegment: cfg.PagesPerSegment, Segments: cfg.Segments, Banks: cfg.Banks}
	pr := &probeRun{
		prober: &prober{ref: newRefKernel(), quick: p.quick},
		out:    out, seed: p.seed, cfg: cfg, geo: geo,
		pages:   geo.Pages() * 4 / 5,
		page:    make([]uint32, probeCalls),
		payload: make([]byte, cfg.PageSize),
		word:    make([]byte, accessBytes),
	}
	stream := pageStream(w, pr.pages, probeCalls, p.seed)
	for i := range pr.page {
		pr.page[i] = stream.Next()
	}
	pr.generators()
	pr.pagetable()
	pr.sram()
	pr.sched()
	pr.host()
	for _, probe := range []func() error{pr.flash, pr.cleaner, pr.core, pr.btree, pr.cluster} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// generators probes the op generators and the latency histogram.
func (pr *probeRun) generators() {
	zipf := workload.NewZipfian(pr.pages, 0.99, pr.seed)
	pr.out["workload.zipf_next_ref"], _ = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			probeSink += uint64(zipf.Next())
		}
	})
	mix := workload.NewMix(workload.NewZipfian(pr.pages, 0.99, pr.seed), 0.95, pr.seed+1)
	pr.out["workload.mix_nextop_ref"], _ = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			probeSink += uint64(mix.NextOp().Page)
		}
	})
	var lat stats.Latency
	pr.out["stats.latency_record_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lat.Record(sim.Duration(160 + i&1023))
		}
	})
}

// pagetable replays the workload's page stream against a standalone
// table, a sharded one and an MMU.
func (pr *probeRun) pagetable() {
	table := pagetable.New(pr.pages)
	sharded := pagetable.NewSharded(pr.pages, 8)
	for lp := 0; lp < pr.pages; lp++ {
		table.MapFlash(uint32(lp), uint32(lp))   //envyvet:allow flashstate — standalone layer instance, no device behind it
		sharded.MapFlash(uint32(lp), uint32(lp)) //envyvet:allow flashstate — standalone layer instance, no device behind it
	}
	pr.out["pagetable.lookup_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			loc, _ := table.Lookup(pr.page[i&(probeCalls-1)])
			probeSink += uint64(loc.PPN)
		}
	})
	pr.out["pagetable.lookup_sharded8_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			loc, _ := sharded.Lookup(pr.page[i&(probeCalls-1)])
			probeSink += uint64(loc.PPN)
		}
	})
	pr.out["pagetable.mapflash_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			table.MapFlash(pr.page[i&(probeCalls-1)], uint32(i)) //envyvet:allow flashstate — standalone layer instance, no device behind it
		}
	})
	mmu := pagetable.NewMMU(4096, 100*sim.Nanosecond)
	pr.out["pagetable.mmu_translate_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			probeSink += uint64(mmu.Translate(pr.page[i&(probeCalls-1)]))
		}
	})
}

// sram probes the write buffer's index, half full.
func (pr *probeRun) sram() {
	buf := sram.NewBuffer(pr.cfg.BufferPages, pr.cfg.PageSize, false)
	for i := 0; i < pr.cfg.BufferPages/2; i++ {
		buf.Insert(uint32(i*7), 0, pr.payload)
	}
	pr.out["sram.lookup_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if buf.Lookup(pr.page[i&(probeCalls-1)]) != nil {
				probeSink++
			}
		}
	})
	pr.out["sram.insert_remove_ref"], _ = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf.Remove(buf.Insert(uint32(1<<30+i), 0, pr.payload))
		}
	})
}

// flash probes a standalone array: programs, page reads, copies, erases.
func (pr *probeRun) flash() error {
	arr, err := flash.New(pr.geo, flash.PaperTiming())
	if err != nil {
		return err
	}
	half := pr.geo.Pages() / 2
	pr.out["flash.program_ref"], _ = pr.measure(half, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arr.Program(uint32(i), uint32(i), pr.payload) //envyvet:allow flashstate — standalone layer instance, no device behind it
		}
	})
	programmed := pr.calls(half)
	pr.out["flash.page_read_ref"], _ = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			probeSink += uint64(arr.Page(uint32(i % programmed))[i&255])
		}
	})
	pr.out["flash.copypage_ref"], _ = pr.measure(programmed, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arr.CopyPage(uint32(half+i), uint32(i), uint32(half+i))
		}
	})
	erasable, err := flash.New(pr.geo, flash.PaperTiming())
	if err != nil {
		return err
	}
	pr.out["flash.erase_ref"], _ = pr.measure(pr.geo.Segments*16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			erasable.Erase(i % pr.geo.Segments) //envyvet:allow flashstate — standalone layer instance, no device behind it
		}
	})
	return nil
}

// cleaner probes Engine.Flush on a standalone array, as
// experiments.runPolicy drives it.
func (pr *probeRun) cleaner() error {
	h, err := cleaner.NewHarness(
		flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 129, Banks: 1},
		cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16, WearThreshold: 100})
	if err != nil {
		return err
	}
	h.Load()
	hp := h.LogicalPages()
	rng := sim.NewRNG(pr.seed)
	dist := sim.Bimodal{HotData: 0.1, HotAccess: 0.9}
	for i := 0; i < 2*hp; i++ {
		h.Write(uint32(dist.Draw(rng, hp)))
	}
	pr.out["cleaner.flush_ref"], pr.out["cleaner.flush_allocs"] = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Write(uint32(dist.Draw(rng, hp)))
		}
	})
	return nil
}

// sched probes enqueue-to-completion of a flush-sized op and a
// preempt/resume cycle of a long one.
func (pr *probeRun) sched() {
	var bd stats.Breakdown
	var ops stats.OpStats
	s := sched.New(1, 1, 2*sim.Microsecond, flash.NewBankSet(pr.geo.Banks), &bd, &ops, sched.Hooks{})
	var now sim.Time
	done := func(uint32) { probeSink++ }
	pr.out["sched.enqueue_run_ref"], pr.out["sched.enqueue_run_allocs"] = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			op := s.GetOp()
			op.Kind, op.Act = stats.OpFlush, stats.Flushing
			op.Remaining = 4 * sim.Microsecond
			op.Bank = i % pr.geo.Banks
			op.Tag, op.Tagged, op.DonePage = uint32(i), true, done
			s.Enqueue(op)
			now = now.Add(4 * sim.Microsecond)
			s.Run(now.Add(-4*sim.Microsecond), now)
		}
	})
	long := s.GetOp()
	long.Kind, long.Act, long.Remaining = stats.OpErase, stats.Erasing, sim.Duration(1)<<60
	s.Enqueue(long)
	pr.out["sched.preempt_resume_ref"], _ = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.Run(now, now.Add(10*sim.Microsecond))
			now = now.Add(10*sim.Microsecond + 160)
			s.Preempt(now)
		}
	})
}

// host probes the host engine over the zero-cost backend.
func (pr *probeRun) host() {
	be := &stubBackend{}
	hreqs := make([]host.Request, 16)
	hptrs := make([]*host.Request, 16)
	for i := range hptrs {
		hptrs[i] = &hreqs[i]
	}
	e1 := host.New(be, 1, pr.cfg.PageSize)
	pr.out["host.submit_drain_d1_ref"], _ = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hreqs[0] = host.Request{Addr: uint64(pr.page[i&(probeCalls-1)]) * 256, Data: pr.word}
			e1.Submit(&hreqs[0])
			be.now++
		}
	})
	e16 := host.New(be, 16, pr.cfg.PageSize)
	pr.out["host.submit_drain_d16_ref"], pr.out["host.submit_drain_d16_allocs"] = pr.measure(probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i += 16 {
			for k := range hreqs {
				hreqs[k] = host.Request{Write: k&3 == 0, Addr: uint64(pr.page[(i+k)&(probeCalls-1)]) * 256, Data: pr.word}
			}
			e16.SubmitAll(hptrs...)
			e16.Drain()
			be.now++
		}
	})
}

// core probes word accesses on a preloaded device whose buffer is large
// enough that the probes never reach the flush threshold.
func (pr *probeRun) core() error {
	ccfg := pr.cfg
	ccfg.BufferPages = 16384
	dev, err := envy.New(ccfg)
	if err != nil {
		return err
	}
	defer dev.Close()
	if err := preloadPattern(dev, pr.pages, pr.cfg.PageSize, initVal); err != nil {
		return err
	}
	core := dev.Core()
	const hot = 2048 // fits the 4096-entry MMU
	for i := 0; i < hot; i++ {
		core.ReadWord(uint64(i) * 256)
	}
	pr.out["core.read_hit_ref"], pr.out["core.read_hit_allocs"] = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, _ := core.ReadWord(uint64(i&(hot-1))*256 + uint64(i&63)*4)
			probeSink += uint64(v)
		}
	})
	const cow = 8192
	pr.out["core.write_cow_ref"], pr.out["core.write_cow_allocs"] = pr.measure(cow, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			core.WriteWord(uint64(hot+i)*256, uint32(i))
		}
	})
	buffered := pr.calls(cow)
	pr.out["core.write_buffered_ref"], pr.out["core.write_buffered_allocs"] = pr.measure(4*probeCalls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			core.WriteWord(uint64(hot+i%buffered)*256+uint64(i&63)*4, uint32(i))
		}
	})
	return nil
}

// btree probes one descent of an account-sized B-tree on a device.
func (pr *probeRun) btree() error {
	tdev, err := envy.New(pr.cfg)
	if err != nil {
		return err
	}
	defer tdev.Close()
	const keys = 10_000
	pairs := make([]btree.KV, keys)
	for i := range pairs {
		pairs[i] = btree.KV{Key: uint64(i + 1), Value: uint64(i) * 100}
	}
	tree, err := btree.Load(tdev.Core(), 0, uint64(tdev.Size()), pairs)
	if err != nil {
		return err
	}
	pr.out["tpca.btree_search_ref"], pr.out["tpca.btree_search_allocs"] = pr.measure(probeCalls/4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, _ := tree.Search(uint64(pr.page[i&(probeCalls-1)])%keys + 1)
			probeSink += v
		}
	})
	if pr.out["tpca.tree_height_account"] == 0 {
		pr.out["tpca.tree_height_account"] = float64(tree.Height())
	}
	return nil
}

// cluster probes the tier's own cost: a one-member cluster minus the
// bare device on the same stream.
func (pr *probeRun) cluster() error {
	mc := pr.cfg
	mc.ParallelFlush, mc.HostQueueDepth = 8, 8
	one, err := cluster.New(cluster.Config{Members: 1, Member: mc})
	if err != nil {
		return err
	}
	defer one.Device(0).Close()
	bare, err := envy.New(mc)
	if err != nil {
		return err
	}
	defer bare.Close()
	span := uint32(one.Pages())
	creqs := make([]cluster.Request, clusterBatch)
	cptrs := make([]*cluster.Request, clusterBatch)
	dreqs := make([]envy.Request, clusterBatch)
	dptrs := make([]*envy.Request, clusterBatch)
	for i := range cptrs {
		cptrs[i], dptrs[i] = &creqs[i], &dreqs[i]
	}
	var probeErr error
	r := pr.measureEach(probeCalls/2, func(lo, hi int) {
		for i := lo; i < hi; i += clusterBatch {
			for k := range creqs {
				creqs[k] = cluster.Request{Write: k&1 == 0, Addr: uint64(pr.page[(i+k)&(probeCalls-1)]%span) * 256, Data: pr.word}
			}
			if err := one.SubmitAll(cptrs...); err != nil {
				probeErr = err
			}
			for k := range creqs {
				one.Wait(&creqs[k])
			}
		}
	}, func(lo, hi int) {
		for i := lo; i < hi; i += clusterBatch {
			for k := range dreqs {
				dreqs[k] = envy.Request{Write: k&1 == 0, Addr: uint64(pr.page[(i+k)&(probeCalls-1)]%span) * 256, Data: pr.word}
			}
			if err := bare.SubmitAll(dptrs...); err != nil {
				probeErr = err
			}
			for k := range dreqs {
				bare.Wait(&dreqs[k])
			}
		}
	})
	if probeErr != nil {
		return fmt.Errorf("cluster probe: %w", probeErr)
	}
	pr.out["cluster.tier_overhead_ref"] = r[0].refs - r[1].refs
	pr.out["cluster.submitall_allocs"] = r[0].allocs
	return nil
}
