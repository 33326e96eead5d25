package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// workloadDef fixes everything about a workload except the seed. Op
// counts are fixed per second of --seconds, never timed, so simulated
// metrics do not depend on how fast the machine is.
type workloadDef struct {
	name, opUnit, why string

	build func(seed uint64, sz sizes) (system, error)
	full  sizes
	tiny  sizes

	// opsPerSecond is how many ops one second of --seconds buys, sized
	// on the 2-vCPU reference box so the timed slices of a run last
	// about --seconds in total.
	opsPerSecond int
	// sliceOps is the ops per timed slice (a few milliseconds);
	// refIters is the reference-kernel work after each slice, about a
	// tenth of it.
	sliceOps, refIters int
	// sloNs is the frozen latency limit: twice the first baseline
	// sim_lat_p999_ns, rounded up to one significant figure.
	sloNs int64
}

// repetitions per run. Simulated metrics must agree across them.
const repetitions = 3

// Frozen open-loop rates: half the saturation throughput measured at
// this commit (ops per simulated second), see README.
const (
	zipfRate    = 61_000
	clusterRate = 68_000
)

var workloads = []workloadDef{
	{
		name: "tpca_sat", opUnit: "TPC-A transaction",
		why:   "closed loop, one client, TPC-A transactions back to back: the paper's headline, whole stack, allocation-heavy path",
		build: newTPCA,
		full:  sizes{churn: 40_000, warmSlices: 8},
		tiny:  sizes{churn: 4_000, warmSlices: 2},

		opsPerSecond: 150_000, sliceOps: 512, refIters: 350, sloNs: 200e6,
	},
	{
		name: "flood_hotcold", opUnit: "256-byte page write",
		why:   "closed loop, page writes only, 10/90 locality at 80% utilisation on 32 MB: cleaner, flash and sched dispatch; bypasses reads, host queue and application",
		build: newFlood,
		full:  sizes{pagesPerSegment: 1024, churn: 100_000, warmSlices: 16},
		tiny:  sizes{pagesPerSegment: 64, churn: 4_000, warmSlices: 2},

		opsPerSecond: 200_000, sliceOps: 768, refIters: 350, sloNs: 200e6,
	},
	{
		name: "read_zipf_q16", opUnit: "8-byte host access",
		why:   "open loop at half saturation, 95/5 read/write Zipfian 0.99 through Submit/Wait at depth 16: host queue, MMU and flash read path; cleaner nearly idle",
		build: func(seed uint64, sz sizes) (system, error) { return newZipf(seed, sz, zipfRate) },
		full:  sizes{pagesPerSegment: 256, churn: 30_000, warmSlices: 16},
		tiny:  sizes{pagesPerSegment: 64, churn: 2_000, warmSlices: 2},

		opsPerSecond: 1_000_000, sliceOps: 1024, refIters: 120, sloNs: 2000,
	},
	{
		name: "cluster4_ycsba", opUnit: "8-byte host access",
		why:   "open loop at half saturation, YCSB-A Zipfian 0.9, Poisson batches of 8 over a 4-member hash ring: routing, per-shard batching and the aggregate stats plane",
		build: func(seed uint64, sz sizes) (system, error) { return newCluster(seed, sz, clusterRate) },
		full:  sizes{pagesPerSegment: 256, churn: 30_000, warmSlices: 16},
		tiny:  sizes{pagesPerSegment: 64, churn: 2_000, warmSlices: 2},

		opsPerSecond: 150_000, sliceOps: 512, refIters: 350, sloNs: 500e3,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// params is one run's shape.
type params struct {
	seed      uint64
	opsPerRep int // rounded down to whole slices
	reps      int
	sz        sizes
	trace     bool
	outDir    string
	corrupt   bool // self-test: flip an oracle byte before verifying
	quick     bool // unit-test scale for the layer probes
}

// simResult is what must repeat exactly, repetition to repetition and
// run to run, for a given seed and op count.
type simResult struct {
	ops, failed           int
	simNs                 int64
	p50, p999             int64
	latSum, tailSum       int64
	tailN                 int
	sloMet                int
	programBytes, erases  int64
	hostWrites            int64
	checked, lost         int
	flushes, cleanCopies  int64
	reads, cows, hostReqs int64
}

// hostResult describes the Go process over one repetition's slices.
type hostResult struct {
	wallNs, refNs, genNs, oracleNs, cpuNs int64
	refIters                              int64
	mallocs, allocBytes                   uint64
	gcCycles                              uint32
	gcPauseNs                             uint64
}

func (h *hostResult) add(o hostResult) {
	h.wallNs += o.wallNs
	h.refNs += o.refNs
	h.genNs += o.genNs
	h.oracleNs += o.oracleNs
	h.cpuNs += o.cpuNs
	h.refIters += o.refIters
	h.mallocs += o.mallocs
	h.allocBytes += o.allocBytes
	h.gcCycles += o.gcCycles
	h.gcPauseNs += o.gcPauseNs
}

// refsPerOp is host cost per op in reference iterations: slice wall
// time over reference wall time measured between the same slices.
func refsPerOp(wallNs, refNs, refIters int64, ops int) float64 {
	return ratio(float64(wallNs), float64(refNs)) * ratio(float64(refIters), float64(ops))
}

type repResult struct {
	setup     time.Duration
	sim       simResult
	host      hostResult
	layer     counters
	parts     [3]float64 // refs/op of each third of the repetition
	overhead  float64    // traced: detailed-slice refs/op over plain-slice refs/op − 1
	liveHeap  uint64
	tracePath string
}

var refSink uint64

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runRep builds a fresh system, runs the timed slices, then the
// untimed power failure and read-back.
func runRep(w *workloadDef, p params, lat []int64, measureHeap bool) (res repResult, err error) {
	t0 := time.Now()
	sys, err := w.build(p.seed, p.sz)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	sliceOps := w.sliceOps
	ops := make([]op, sliceOps)
	for i := 0; i < p.sz.warmSlices; i++ {
		sys.gen(ops)
		if failed := sys.exec(ops, lat[:sliceOps], nil); failed != 0 {
			return res, fmt.Errorf("warm-up: %d ops failed", failed)
		}
		if err := sys.apply(ops); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.setup = time.Since(t0)

	nSlices := p.opsPerRep / sliceOps
	nOps := nSlices * sliceOps
	lat = lat[:nOps]

	var tr *tracer
	detailEvery := 0
	var snaps []statsSnapshot
	if p.trace {
		tr = newTracer()
		detailed := maxSpans / (3 * sliceOps) // at most three call spans per op
		detailEvery = (nSlices + detailed - 1) / detailed
	}

	ref := newRefKernel()
	refSink ^= ref.run(w.refIters) // first touch of the table stays out of the timing
	sys.resetStats()
	c0 := sys.counters()
	sim0 := sys.simNow()
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var h hostResult
	var part [3]hostResult
	var detail, plain hostResult
	var detailOps, plainOps int
	for s := 0; s < nSlices; s++ {
		var sliceTr *tracer
		if tr != nil && s%detailEvery == 0 {
			sliceTr = tr
			tr.opBase = int32(s * sliceOps)
			// The slice and exec spans are appended after the slice, from
			// the timestamps below; call spans name them as parents now.
			tr.parent = int32(len(tr.spans)) + 1
			tr.spans = append(tr.spans, span{}, span{})
		}
		g0 := time.Now()
		sys.gen(ops)
		e0 := time.Now()
		res.sim.failed += sys.exec(ops, lat[s*sliceOps:(s+1)*sliceOps], sliceTr)
		e1 := time.Now()
		if err := sys.apply(ops); err != nil {
			return res, fmt.Errorf("slice %d: %w", s, err)
		}
		o1 := time.Now()
		refSink ^= ref.run(w.refIters)
		r1 := time.Now()

		sl := hostResult{
			wallNs: int64(e1.Sub(e0)), refNs: int64(r1.Sub(o1)),
			genNs: int64(e0.Sub(g0)), oracleNs: int64(o1.Sub(e1)),
			refIters: int64(w.refIters),
		}
		h.add(sl)
		part[s*3/nSlices].add(sl)
		if tr != nil {
			if sliceTr != nil {
				detail.add(sl)
				detailOps += sliceOps
				id := tr.parent - 1
				tr.spans[id] = span{name: spanSlice, parent: -1, op: -1, start: int64(g0.Sub(tr.t0)), end: int64(r1.Sub(tr.t0))}
				tr.spans[id+1] = span{name: spanExec, parent: id, op: -1, start: int64(e0.Sub(tr.t0)), end: int64(e1.Sub(tr.t0))}
				tr.add(spanGen, id, g0, e0)
				tr.add(spanOracle, id, e1, o1)
				tr.add(spanRef, id, o1, r1)
			} else {
				plain.add(sl)
				plainOps += sliceOps
			}
			if (s+1)%64 == 0 {
				c := sys.counters()
				c.programBytes -= c0.programBytes
				snaps = append(snaps, statsSnapshot{Slice: s + 1, SimNs: sys.simNow() - sim0,
					Counters: layerCounters(c, (s+1)*sliceOps)})
			}
		}
	}
	h.cpuNs = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	h.mallocs = ms1.Mallocs - ms0.Mallocs
	h.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	h.gcCycles = ms1.NumGC - ms0.NumGC
	h.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	res.host = h
	for i := range part {
		res.parts[i] = refsPerOp(part[i].wallNs, part[i].refNs, part[i].refIters, nOps/3)
	}
	if detailOps > 0 && plainOps > 0 {
		res.overhead = refsPerOp(detail.wallNs, detail.refNs, detail.refIters, detailOps)/
			refsPerOp(plain.wallNs, plain.refNs, plain.refIters, plainOps) - 1
	}

	c1 := sys.counters()
	c1.programBytes -= c0.programBytes
	res.layer = c1
	sorted := lat // the samples are not needed in op order again
	slices.Sort(sorted)
	res.sim.ops = nOps
	res.sim.simNs = sys.simNow() - sim0
	res.sim.p50 = sorted[quantileIndex(nOps, 0.5)]
	res.sim.p999 = sorted[quantileIndex(nOps, 0.999)]
	// The tail figure is the mean of the slowest 1% of samples without
	// the slowest 0.1%: the handful of samples beyond p99.9 are a few
	// rare stalls whose count varies from seed to seed (slo_met_frac
	// counts those), the band below them is the tail every run sees.
	tailLo, tailHi := quantileIndex(nOps, 0.99), quantileIndex(nOps, 0.999)
	res.sim.tailN = tailHi - tailLo
	for i, l := range sorted {
		res.sim.latSum += l
		if l <= w.sloNs {
			res.sim.sloMet++
		}
		if i >= tailLo && i < tailHi {
			res.sim.tailSum += l
		}
	}
	res.sim.programBytes, res.sim.erases = c1.programBytes, c1.erases
	res.sim.hostWrites = c1.writes
	res.sim.flushes, res.sim.cleanCopies = c1.flushes, c1.cleanCopies
	res.sim.reads, res.sim.cows, res.sim.hostReqs = c1.reads, c1.cows, c1.hostRequests

	if p.corrupt {
		sys.corrupt()
	}
	res.sim.checked, res.sim.lost, err = sys.verify()
	if err != nil {
		return res, fmt.Errorf("power failure and recovery: %w", err)
	}
	if measureHeap {
		// Live heap of the system alone: what is reachable with it minus
		// what is reachable once it is dropped.
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		sys.close()
		sys = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		if with.HeapAlloc > without.HeapAlloc {
			res.liveHeap = with.HeapAlloc - without.HeapAlloc
		}
	}
	if tr != nil {
		res.tracePath, err = tr.write(p.outDir, w.name, p.seed, snaps)
		if err != nil {
			return res, fmt.Errorf("trace: %w", err)
		}
	}
	return res, nil
}

func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// result is one run of one workload.
type result struct {
	workload          string
	endToEnd          map[string]float64
	perLayer          map[string]float64 // traced runs only
	attempted, failed int
	samples           int // latency samples per repetition
	checked, lost     int
	repSpread         float64
	p50, p999         int64
	tracePath         string
	problems          []string // why the run is not correct
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// runWorkload does the set-up/repetition/verify cycle p.reps times
// with the same seed and pools the host figures. A traced run does one
// repetition and adds the layer probes.
func runWorkload(w *workloadDef, p params) (*result, error) {
	p.opsPerRep -= p.opsPerRep % w.sliceOps
	if p.opsPerRep < 3*w.sliceOps {
		return nil, fmt.Errorf("%s: %d ops per repetition is under three slices", w.name, p.opsPerRep)
	}
	lat := make([]int64, p.opsPerRep)
	out := &result{workload: w.name, samples: p.opsPerRep}
	var reps []repResult
	for i := 0; i < p.reps; i++ {
		rep, err := runRep(w, p, lat, i == p.reps-1)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, i+1, err)
		}
		if i > 0 && rep.sim != reps[0].sim {
			out.problems = append(out.problems, fmt.Sprintf(
				"simulated results differ between repetitions 1 and %d: %+v vs %+v", i+1, reps[0].sim, rep.sim))
		}
		reps = append(reps, rep)
	}
	last := reps[len(reps)-1]
	s := last.sim
	if s.lost != 0 {
		out.problems = append(out.problems, fmt.Sprintf("lost_acked_writes = %d of %d checked", s.lost, s.checked))
	}
	if s.failed != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d ops failed or were refused", s.failed, s.ops))
	}
	out.attempted, out.failed = s.ops*len(reps), s.failed*len(reps)
	out.checked, out.lost = s.checked, s.lost
	out.p50, out.p999 = s.p50, s.p999
	out.tracePath = last.tracePath

	var h hostResult
	setups := make([]float64, len(reps))
	perRep := make([]float64, 0, 3)
	for i, r := range reps {
		h.add(r.host)
		setups[i] = r.setup.Seconds()
		perRep = append(perRep, refsPerOp(r.host.wallNs, r.host.refNs, r.host.refIters, s.ops))
	}
	if len(reps) == 1 {
		perRep = last.parts[:]
	}
	slices.Sort(perRep)
	slices.Sort(setups)
	out.repSpread = ratio(perRep[len(perRep)-1]-perRep[0], perRep[len(perRep)/2])
	ops := float64(out.attempted)

	out.endToEnd = map[string]float64{
		"sim_ops_s":            float64(s.ops) / (float64(s.simNs) / 1e9),
		"sim_lat_mean_ns":      float64(s.latSum) / float64(s.ops),
		"sim_lat_tail_mean_ns": float64(s.tailSum) / float64(s.tailN),
		"slo_met_frac":         float64(s.sloMet) / float64(s.ops),
		"write_amp":            ratio(float64(s.programBytes), float64(s.hostWrites)*4),
		"erases_per_mop":       float64(s.erases) * 1e6 / float64(s.ops),
		"host_refs_per_op":     refsPerOp(h.wallNs, h.refNs, h.refIters, out.attempted),
		"allocs_per_op":        float64(h.mallocs) / ops,
		"alloc_bytes_per_op":   float64(h.allocBytes) / ops,
		"live_heap_mb":         float64(last.liveHeap) / (1 << 20),
		"setup_s":              setups[len(setups)/2],
	}
	if p.trace {
		out.perLayer = layerCounters(last.layer, s.ops)
		out.perLayer["bench.ref_ns_per_iter"] = ratio(float64(h.refNs), float64(h.refIters))
		out.perLayer["bench.wall_ns_per_op"] = float64(h.wallNs) / ops
		out.perLayer["bench.cpu_ns_per_op"] = float64(h.cpuNs) / ops
		out.perLayer["bench.gen_ns_per_op"] = float64(h.genNs) / ops
		out.perLayer["bench.oracle_ns_per_op"] = float64(h.oracleNs) / ops
		out.perLayer["bench.trace_overhead_frac"] = last.overhead
		out.perLayer["bench.gc_cycles"] = float64(h.gcCycles)
		out.perLayer["bench.gc_pause_ns_total"] = float64(h.gcPauseNs)
		out.perLayer["bench.rep_spread_frac"] = out.repSpread
		out.perLayer["bench.sim_lat_p50_ns"] = float64(s.p50)
		out.perLayer["bench.sim_lat_p999_ns"] = float64(s.p999)
		if err := runProbes(w, p, out.perLayer); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	return out, nil
}

// layerCounters turns a counter snapshot taken after ops ops into the
// counter-backed per-layer metrics.
func layerCounters(c counters, ops int) map[string]float64 {
	var readsPerTxn, writesPerTxn float64
	if c.treeHeightAccount > 0 { // only tpca_sat has transactions
		readsPerTxn = ratio(float64(c.reads), float64(ops))
		writesPerTxn = ratio(float64(c.writes), float64(ops))
	}
	return map[string]float64{
		"host.requests":            float64(c.hostRequests),
		"host.mean_depth":          c.hostMeanDepth,
		"host.max_depth":           float64(c.hostMaxDepth),
		"host.p50_sojourn_ns":      float64(c.hostP50),
		"host.p99_sojourn_ns":      float64(c.hostP99),
		"host.batches":             float64(c.hostBatches),
		"host.min_effective_depth": float64(c.hostMinEff),

		"pagetable.mmu_hit_rate": ratio(float64(c.mmuHits), float64(c.mmuHits+c.mmuMisses)),

		"sram.buffer_hits":        float64(c.bufferHits),
		"sram.buffer_hit_rate":    ratio(float64(c.bufferHits), float64(c.writes)),
		"sram.buffered_pages_end": float64(c.bufferedPages),

		"core.reads":          float64(c.reads),
		"core.writes":         float64(c.writes),
		"core.copy_on_writes": float64(c.cows),
		"core.flushes":        float64(c.flushes),
		"core.read_mean_ns":   ratio(c.readSumNs, float64(c.reads)),
		"core.write_mean_ns":  ratio(c.writeSumNs, float64(c.writes)),
		"core.write_p99_ns":   float64(c.writeP99),
		"core.write_max_ns":   float64(c.writeMax),
		"core.frac_idle":      c.fracIdle,
		"core.frac_reading":   c.fracReading,
		"core.frac_writing":   c.fracWriting,
		"core.frac_flushing":  c.fracFlushing,

		"sched.flush_started":          float64(c.flushStarted),
		"sched.flush_suspensions":      float64(c.flushSusp),
		"sched.flush_suspended_ns":     float64(c.flushSuspNs),
		"sched.clean_suspensions":      float64(c.cleanSusp),
		"sched.erase_suspensions":      float64(c.eraseSusp),
		"sched.erase_suspended_ns":     float64(c.eraseSuspNs),
		"sched.resumes":                float64(c.resumes),
		"sched.flush_clean_overlap_ns": float64(c.overlapNs),

		"flash.program_bytes": float64(c.programBytes),
		"flash.erases":        float64(c.erases),
		"flash.frac_erase":    c.fracErase,
		"flash.wear_max":      float64(c.wearMax),
		"flash.wear_spread":   float64(c.wearMax - c.wearMin),

		"cleaner.cleaning_cost":  ratio(float64(c.cleanCopies), float64(c.flushes)),
		"cleaner.clean_copies":   float64(c.cleanCopies),
		"cleaner.segment_cleans": float64(c.segmentCleans),
		"cleaner.wear_swaps":     float64(c.wearSwaps),
		"cleaner.frac_cleaning":  c.fracCleaning,

		"tpca.reads_per_txn":       readsPerTxn,
		"tpca.writes_per_txn":      writesPerTxn,
		"tpca.tree_height_account": float64(c.treeHeightAccount),

		"cluster.submitted":       float64(c.clusterSubmitted),
		"cluster.backpressured":   float64(c.clusterBackpressured),
		"cluster.rejected":        float64(c.clusterRejected),
		"cluster.shard_imbalance": c.shardImbalance,
		"cluster.p99_sojourn_ns":  float64(c.clusterP99),
	}
}
