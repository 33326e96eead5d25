package main

import (
	"envy"
)

// metricDef declares one metric. BENCHMARK.json carries the same names
// and units; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: the worsening, as a share of the median, that counts as a regression
}

// endToEnd is what a user of the system sees. sim_*, slo_met_frac and
// the flash traffic ratios are on the simulated clock and repeat
// exactly for a given seed and op count; the rest describe the Go
// process. The latency percentiles are quantised by the simulated
// clock (a read is 160 ns or 260 ns, nothing between) and so read the
// same for every seed; they are reported beside the per-layer metrics,
// and the end-to-end tail figure is the mean of the samples between
// p99 and p99.9, which moves with every sample in that band.
var endToEnd = []metricDef{
	{"sim_ops_s", "op/s", "higher", 0.02},
	{"sim_lat_mean_ns", "ns", "lower", 0.02},
	{"sim_lat_tail_mean_ns", "ns", "lower", 0.05},
	{"slo_met_frac", "frac", "higher", 0.001},
	{"write_amp", "B/B", "lower", 0.05},
	{"erases_per_mop", "1/Mop", "lower", 0.05},
	{"host_refs_per_op", "ref/op", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.03},
	{"alloc_bytes_per_op", "B/op", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"bench.ref_ns_per_iter", "ns", "lower", 0},
	{"bench.wall_ns_per_op", "ns", "lower", 0},
	{"bench.cpu_ns_per_op", "ns", "lower", 0},
	{"bench.gen_ns_per_op", "ns", "lower", 0},
	{"bench.oracle_ns_per_op", "ns", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.gc_cycles", "count", "lower", 0},
	{"bench.gc_pause_ns_total", "ns", "lower", 0},
	{"bench.rep_spread_frac", "frac", "lower", 0},
	{"bench.sim_lat_p50_ns", "ns", "lower", 0},
	{"bench.sim_lat_p999_ns", "ns", "lower", 0},

	{"host.requests", "count", "lower", 0},
	{"host.mean_depth", "count", "lower", 0},
	{"host.max_depth", "count", "lower", 0},
	{"host.p50_sojourn_ns", "ns", "lower", 0},
	{"host.p99_sojourn_ns", "ns", "lower", 0},
	{"host.batches", "count", "lower", 0},
	{"host.min_effective_depth", "count", "higher", 0},
	{"host.submit_drain_d1_ref", "ref/call", "lower", 0},
	{"host.submit_drain_d16_ref", "ref/call", "lower", 0},
	{"host.submit_drain_d16_allocs", "1/call", "lower", 0},

	{"pagetable.mmu_hit_rate", "frac", "higher", 0},
	{"pagetable.lookup_ref", "ref/call", "lower", 0},
	{"pagetable.mapflash_ref", "ref/call", "lower", 0},
	{"pagetable.mmu_translate_ref", "ref/call", "lower", 0},
	{"pagetable.lookup_sharded8_ref", "ref/call", "lower", 0},

	{"sram.buffer_hits", "count", "higher", 0},
	{"sram.buffer_hit_rate", "frac", "higher", 0},
	{"sram.buffered_pages_end", "count", "lower", 0},
	{"sram.lookup_ref", "ref/call", "lower", 0},
	{"sram.insert_remove_ref", "ref/call", "lower", 0},

	{"core.reads", "count", "lower", 0},
	{"core.writes", "count", "lower", 0},
	{"core.copy_on_writes", "count", "lower", 0},
	{"core.flushes", "count", "lower", 0},
	{"core.read_mean_ns", "ns", "lower", 0},
	{"core.write_mean_ns", "ns", "lower", 0},
	{"core.write_p99_ns", "ns", "lower", 0},
	{"core.write_max_ns", "ns", "lower", 0},
	{"core.frac_idle", "frac", "higher", 0},
	{"core.frac_reading", "frac", "lower", 0},
	{"core.frac_writing", "frac", "lower", 0},
	{"core.frac_flushing", "frac", "lower", 0},
	{"core.read_hit_ref", "ref/call", "lower", 0},
	{"core.read_hit_allocs", "1/call", "lower", 0},
	{"core.write_buffered_ref", "ref/call", "lower", 0},
	{"core.write_buffered_allocs", "1/call", "lower", 0},
	{"core.write_cow_ref", "ref/call", "lower", 0},
	{"core.write_cow_allocs", "1/call", "lower", 0},

	{"sched.flush_started", "count", "lower", 0},
	{"sched.flush_suspensions", "count", "lower", 0},
	{"sched.flush_suspended_ns", "ns", "lower", 0},
	{"sched.clean_suspensions", "count", "lower", 0},
	{"sched.erase_suspensions", "count", "lower", 0},
	{"sched.erase_suspended_ns", "ns", "lower", 0},
	{"sched.resumes", "count", "lower", 0},
	{"sched.flush_clean_overlap_ns", "ns", "lower", 0},
	{"sched.enqueue_run_ref", "ref/call", "lower", 0},
	{"sched.enqueue_run_allocs", "1/call", "lower", 0},
	{"sched.preempt_resume_ref", "ref/call", "lower", 0},

	{"flash.program_bytes", "B", "lower", 0},
	{"flash.erases", "count", "lower", 0},
	{"flash.frac_erase", "frac", "lower", 0},
	{"flash.wear_max", "count", "lower", 0},
	{"flash.wear_spread", "count", "lower", 0},
	{"flash.program_ref", "ref/call", "lower", 0},
	{"flash.copypage_ref", "ref/call", "lower", 0},
	{"flash.erase_ref", "ref/call", "lower", 0},
	{"flash.page_read_ref", "ref/call", "lower", 0},

	{"cleaner.cleaning_cost", "copies/flush", "lower", 0},
	{"cleaner.clean_copies", "count", "lower", 0},
	{"cleaner.segment_cleans", "count", "lower", 0},
	{"cleaner.wear_swaps", "count", "lower", 0},
	{"cleaner.frac_cleaning", "frac", "lower", 0},
	{"cleaner.flush_ref", "ref/call", "lower", 0},
	{"cleaner.flush_allocs", "1/call", "lower", 0},

	{"tpca.reads_per_txn", "1/op", "lower", 0},
	{"tpca.writes_per_txn", "1/op", "lower", 0},
	{"tpca.tree_height_account", "count", "lower", 0},
	{"tpca.btree_search_ref", "ref/call", "lower", 0},
	{"tpca.btree_search_allocs", "1/call", "lower", 0},

	{"cluster.submitted", "count", "lower", 0},
	{"cluster.backpressured", "count", "lower", 0},
	{"cluster.rejected", "count", "lower", 0},
	{"cluster.shard_imbalance", "ratio", "lower", 0},
	{"cluster.p99_sojourn_ns", "ns", "lower", 0},
	{"cluster.tier_overhead_ref", "ref/call", "lower", 0},
	{"cluster.submitall_allocs", "1/call", "lower", 0},

	{"workload.zipf_next_ref", "ref/call", "lower", 0},
	{"workload.mix_nextop_ref", "ref/call", "lower", 0},
	{"stats.latency_record_ref", "ref/call", "lower", 0},
}

// counters is the layer-counter snapshot a workload hands the driver:
// envy.Stats flattened to what the per-layer metrics need, and summed
// over members on the cluster.
type counters struct {
	hostRequests, hostBatches    int64
	hostMeanDepth                float64
	hostMaxDepth, hostMinEff     int
	hostP50, hostP99             int64
	mmuHits, mmuMisses           int64
	bufferHits                   int64
	bufferedPages                int
	reads, writes, cows, flushes int64
	readSumNs, writeSumNs        float64 // mean × count, so members merge exactly
	writeP99, writeMax           int64
	fracIdle, fracReading        float64
	fracWriting, fracFlushing    float64
	fracCleaning, fracErase      float64
	flushStarted, flushSusp      int64
	flushSuspNs                  int64
	cleanSusp                    int64
	eraseSusp, eraseSuspNs       int64
	resumes, overlapNs           int64
	programBytes                 int64 // lifetime total: the driver takes the delta
	erases                       int64
	wearMin, wearMax             int64
	cleanCopies, segmentCleans   int64
	wearSwaps                    int64
	treeHeightAccount            int

	clusterSubmitted, clusterBackpressured, clusterRejected int64
	clusterP99                                              int64
	shardImbalance                                          float64
}

func deviceCounters(dev *envy.Device) counters {
	c := statsCounters(dev.Stats())
	cc := dev.Core().Counters()
	c.mmuHits, c.mmuMisses = cc.MMUHits, cc.MMUMisses
	return c
}

func statsCounters(st envy.Stats) counters {
	resumes := st.FlushOps.Resumes + st.CleanCopyOps.Resumes + st.EraseOps.Resumes + st.WearSwapOps.Resumes
	return counters{
		hostRequests: st.HostRequests, hostBatches: st.HostBatches,
		hostMeanDepth: st.HostMeanDepth, hostMaxDepth: st.HostMaxDepth, hostMinEff: st.HostMinEffectiveDepth,
		hostP50: int64(st.HostP50), hostP99: int64(st.HostP99),
		bufferHits: st.BufferHits, bufferedPages: st.BufferedPages,
		reads: st.Reads, writes: st.Writes, cows: st.CopyOnWrites, flushes: st.Flushes,
		readSumNs: float64(st.ReadMean) * float64(st.Reads), writeSumNs: float64(st.WriteMean) * float64(st.Writes),
		writeP99: int64(st.WriteP99), writeMax: int64(st.WriteMax),
		fracIdle: st.FracIdle, fracReading: st.FracReading, fracWriting: st.FracWriting,
		fracFlushing: st.FracFlushing, fracCleaning: st.FracCleaning, fracErase: st.FracErase,
		flushStarted: st.FlushOps.Started, flushSusp: st.FlushOps.Suspensions, flushSuspNs: int64(st.FlushOps.Suspended),
		cleanSusp: st.CleanCopyOps.Suspensions,
		eraseSusp: st.EraseOps.Suspensions, eraseSuspNs: int64(st.EraseOps.Suspended),
		resumes: resumes, overlapNs: int64(st.FlushCleanOverlap),
		programBytes: st.ProgramBytes, erases: st.Erases,
		wearMin: st.WearMin, wearMax: st.WearMax,
		cleanCopies: st.CleanCopies, segmentCleans: st.SegmentCleans, wearSwaps: st.WearSwaps,
	}
}

// mergeCounters folds the members' snapshots into one: counts sum,
// gauges and tails take the worst member, time fractions average.
func mergeCounters(members []counters) counters {
	c := members[0]
	for _, o := range members[1:] {
		c.add(o)
	}
	n := float64(len(members))
	c.hostMeanDepth /= n
	c.fracIdle /= n
	c.fracReading /= n
	c.fracWriting /= n
	c.fracFlushing /= n
	c.fracCleaning /= n
	c.fracErase /= n
	return c
}

func (c *counters) add(o counters) {
	c.hostRequests += o.hostRequests
	c.hostBatches += o.hostBatches
	c.hostMeanDepth += o.hostMeanDepth
	c.hostMaxDepth = max(c.hostMaxDepth, o.hostMaxDepth)
	c.hostMinEff = min(c.hostMinEff, o.hostMinEff)
	c.hostP50 = max(c.hostP50, o.hostP50)
	c.hostP99 = max(c.hostP99, o.hostP99)
	c.mmuHits += o.mmuHits
	c.mmuMisses += o.mmuMisses
	c.bufferHits += o.bufferHits
	c.bufferedPages += o.bufferedPages
	c.reads += o.reads
	c.writes += o.writes
	c.cows += o.cows
	c.flushes += o.flushes
	c.readSumNs += o.readSumNs
	c.writeSumNs += o.writeSumNs
	c.writeP99 = max(c.writeP99, o.writeP99)
	c.writeMax = max(c.writeMax, o.writeMax)
	c.fracIdle += o.fracIdle
	c.fracReading += o.fracReading
	c.fracWriting += o.fracWriting
	c.fracFlushing += o.fracFlushing
	c.fracCleaning += o.fracCleaning
	c.fracErase += o.fracErase
	c.flushStarted += o.flushStarted
	c.flushSusp += o.flushSusp
	c.flushSuspNs += o.flushSuspNs
	c.cleanSusp += o.cleanSusp
	c.eraseSusp += o.eraseSusp
	c.eraseSuspNs += o.eraseSuspNs
	c.resumes += o.resumes
	c.overlapNs += o.overlapNs
	c.programBytes += o.programBytes
	c.erases += o.erases
	c.wearMin = min(c.wearMin, o.wearMin)
	c.wearMax = max(c.wearMax, o.wearMax)
	c.cleanCopies += o.cleanCopies
	c.segmentCleans += o.segmentCleans
	c.wearSwaps += o.wearSwaps
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
