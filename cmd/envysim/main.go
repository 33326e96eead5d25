// Command envysim runs the full-system eNVy simulation under the
// TPC-A workload (§5) and prints the measured I/O rates, latencies,
// controller breakdown, wear, and lifetime estimate.
//
// Example:
//
//	envysim -rate 8000 -seconds 1 -branches 2 -accounts 500
//	envysim -parallel 8 -depth 4 -rate 16000  # multi-outstanding hosts
//	envysim -parallel 8 -depth 16 -adaptive -rate 30000  # adaptive queue depth
//	envysim -paper -rate 30000 -seconds 2     # Figure 12 scale, ~2.5 GB RAM
//
// With -cluster N the command instead drives the sharded service tier:
// N member devices behind one logical-page namespace, loaded with a
// YCSB Zipfian mix, optionally crashing and recovering one member
// mid-load:
//
//	envysim -cluster 4 -mix a -theta 0.9 -rate 1000000 -seconds 0.1
//	envysim -cluster 4 -crash 2 -check    # mid-load crash, verify on drain
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"envy/internal/cleaner"
	"envy/internal/cluster"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/invariant"
	"envy/internal/lifetime"
	"envy/internal/maptier"
	"envy/internal/profiling"
	"envy/internal/sim"
	"envy/internal/stats"
	"envy/internal/tpca"
	"envy/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("envysim: ")

	var (
		paper     = flag.Bool("paper", false, "use the paper's full 2 GB configuration (Figure 12)")
		rate      = flag.Float64("rate", 8000, "offered transaction rate (TPS)")
		seconds   = flag.Float64("seconds", 1, "simulated seconds to measure")
		warm      = flag.Float64("warm", 0.5, "simulated seconds of warm-up")
		branches  = flag.Int("branches", 2, "TPC-A branches (ignored with -paper)")
		accounts  = flag.Int("accounts", 500, "accounts per teller (ignored with -paper)")
		policy    = flag.String("policy", "hybrid", "cleaning policy: hybrid, lg, fifo, greedy")
		parallel  = flag.Int("parallel", 1, "concurrent bank programs (§6 extension)")
		depth     = flag.Int("depth", 1, "outstanding host requests (1 = the paper's single-outstanding host)")
		adaptive  = flag.Bool("adaptive", false, "adapt the effective host queue depth to the observed suspension rate")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		wearCheck = flag.Bool("wear", true, "enable 100-cycle wear leveling")
		flushPol  = flag.String("flush", "full", "flush policy: full (whole-page programs) or diff (page-differential logging)")
		maxChain  = flag.Int("diffchain", 0, "diff-chain length bound before promotion to a full-page flush (0 = default)")
		mapTier   = flag.Int("maptier", 0, "two-tier page table: SRAM mapping-page cache frames (0 = flat battery-backed table)")
		check     = flag.Bool("check", false, "run the whole-device invariant checker after warm-up and after the measured run")
		clusterN  = flag.Int("cluster", 0, "run the sharded service tier with this many member devices (0 = single-device TPC-A mode)")
		mix       = flag.String("mix", "a", "cluster mode: YCSB mix class a (50/50), b (95/5), or c (read-only)")
		theta     = flag.Float64("theta", 0.9, "cluster mode: Zipfian skew of the page popularity distribution")
		crash     = flag.Int("crash", -1, "cluster mode: crash this member mid-load and recover it (-1 = no crash)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	if *clusterN > 0 {
		runCluster(*clusterN, *mix, *theta, *crash, *rate, *seconds, *warm, *seed, *check)
		return
	}

	cfg := core.Config{
		Geometry:    flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 128, Banks: 8},
		BufferPages: 2048,
	}
	tcfg := tpca.Config{Branches: *branches, AccountsPerTeller: *accounts, Seed: *seed, InitialBalance: 1000}
	if *paper {
		cfg.Geometry = flash.PaperGeometry()
		cfg.BufferPages = 64 * 1024
		tcfg.Branches = 128
		tcfg.AccountsPerTeller = 10000
	}
	switch *policy {
	case "hybrid":
		cfg.Cleaning = cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16}
	case "lg":
		cfg.Cleaning = cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 1}
	case "fifo":
		cfg.Cleaning = cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: cfg.Geometry.Segments - 1}
	case "greedy":
		cfg.Cleaning = cleaner.Config{Kind: cleaner.Greedy}
	default:
		log.Printf("unknown policy %q", *policy)
		os.Exit(2)
	}
	if *wearCheck {
		cfg.Cleaning.WearThreshold = 100
	}
	cfg.ParallelFlush = *parallel
	if *mapTier > 0 {
		cfg.MapTier = &maptier.Params{CacheFrames: *mapTier}
	}
	switch *flushPol {
	case "full":
	case "diff":
		cfg.FlushPolicy = core.DiffFlush
		cfg.DiffMaxChain = *maxChain
	default:
		log.Printf("unknown flush policy %q", *flushPol)
		os.Exit(2)
	}

	dev, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %d MB flash, %d segments, %s cleaning, buffer %d pages (seed %d)\n",
		cfg.Geometry.Capacity()>>20, cfg.Geometry.Segments, *policy, dev.Config().BufferPages, *seed)
	flatBytes := dev.PageTable().SRAMBytes()
	if mt := dev.MapTier(); mt != nil {
		fmt.Printf("page table:       two-tier, %d mapping pages, %d cache frames; SRAM %d B directory + %d B cache = %d B (flat table would need %d B, %.1fx)\n",
			mt.Pages(), mt.CacheFrames(), mt.DirectoryBytes(), mt.CacheBytes(), mt.SRAMBytes(),
			flatBytes, float64(flatBytes)/float64(mt.SRAMBytes()))
	} else {
		fmt.Printf("page table:       flat battery-backed SRAM, %d B\n", flatBytes)
	}

	bank, err := tpca.Setup(dev, tcfg)
	if err != nil {
		log.Fatal(err)
	}
	br, te, ac := bank.TreeHeights()
	fmt.Printf("database: %d accounts, index depths branch=%d teller=%d account=%d\n",
		bank.Accounts(), br, te, ac)

	if *depth < 1 {
		log.Printf("depth must be at least 1, got %d", *depth)
		os.Exit(2)
	}
	var dr *tpca.Driver
	if *adaptive {
		dr = tpca.NewDriverAdaptive(bank, *depth)
	} else {
		dr = tpca.NewDriverDepth(bank, *depth)
	}
	if _, err := dr.Run(*rate, sim.Duration(*warm*1e9)); err != nil {
		log.Fatal(err)
	}
	if *check {
		if err := invariant.CheckDevice(dev); err != nil {
			log.Fatalf("invariant violation after warm-up: %v", err)
		}
	}
	res, err := dr.Run(*rate, sim.Duration(*seconds*1e9))
	if err != nil {
		log.Fatal(err)
	}
	if *check {
		if err := invariant.CheckDevice(dev); err != nil {
			log.Fatalf("invariant violation after measured run: %v", err)
		}
	}

	fmt.Printf("\noffered %.0f TPS for %.2fs simulated\n", res.Offered, res.Duration.Seconds())
	fmt.Printf("completed:        %d transactions (%.0f TPS)\n", res.Completed, res.TPS)
	fmt.Printf("read latency:     mean %dns  p99 %dns\n", int64(res.ReadMean), int64(res.ReadP99))
	fmt.Printf("write latency:    mean %dns  p99 %dns\n", int64(res.WriteMean), int64(res.WriteP99))
	fmt.Printf("txn latency:      mean %.1fµs\n", res.TxnLatency.Mean().Micros())
	if res.HostRequests > 0 {
		fmt.Printf("host queue:       depth %d (mean %.2f), sojourn p50 %dns  p95 %dns  p99 %dns  max %dns\n",
			*depth, res.HostMeanDepth,
			int64(res.HostP50), int64(res.HostP95), int64(res.HostP99), int64(res.HostMax))
	}
	if *adaptive {
		fmt.Printf("adaptive depth:   effective %d of %d (%d suspensions observed)\n",
			res.HostEffectiveDepth, *depth, res.Suspensions)
	}
	fmt.Printf("flush rate:       %.0f pages/s, cleaning cost %.2f\n", res.FlushPagesPerSec, res.CleaningCost)
	b := res.Breakdown
	fmt.Printf("controller time:  read %.0f%%  write %.0f%%  flush %.0f%%  clean %.0f%%  erase %.0f%%  idle %.0f%%\n",
		100*b.Fraction(stats.Reading), 100*b.Fraction(stats.Writing), 100*b.Fraction(stats.Flushing),
		100*b.Fraction(stats.Cleaning), 100*b.Fraction(stats.Erasing), 100*b.Fraction(stats.Idle))
	wmin, wmax := dev.Array().WearSpread()
	fmt.Printf("wear:             %d..%d erases per segment (%d swaps)\n", wmin, wmax, res.Counters.WearSwaps)
	// Print whenever the counters are nonzero, not only when -flush=diff
	// was requested: recovery replay and policy switches can leave diff
	// activity on the books regardless of the current flag.
	if c := res.Counters; *flushPol == "diff" ||
		c.DiffRecordsWritten != 0 || c.DiffUnitPrograms != 0 || c.DiffMerges != 0 || c.DiffPromotions != 0 {
		fmt.Printf("diff logging:     %d records in %d units, %d merges, %d promotions, %d B programmed\n",
			c.DiffRecordsWritten, c.DiffUnitPrograms, c.DiffMerges, c.DiffPromotions, dev.Array().ProgramBytes())
	}
	if mt := dev.MapTier(); mt != nil {
		mc := mt.Counters()
		fmt.Printf("mapping cache:    %.1f%% hit (%d hits, %d misses), %d writebacks (%d forced), %d translation cleans\n",
			100*mc.HitRate(), mc.Hits, mc.Misses, mc.Writebacks+mc.SyncWritebacks, mc.SyncWritebacks, mc.Cleans)
	}
	ops := dev.OpStats()
	fmt.Printf("background ops:   kind  done/started  suspensions (§3.4 preempted mid-flight)\n")
	for _, k := range []stats.OpKind{stats.OpFlush, stats.OpDiffFlush, stats.OpCleanCopy, stats.OpErase, stats.OpWearSwap, stats.OpMapFlush, stats.OpMapClean, stats.OpMapErase} {
		oc := ops.Get(k)
		// Skip only when every counter is zero: an op kind can show
		// completions or suspensions without starts after a power-cycle
		// recovery resets the in-flight set.
		if oc.Started == 0 && oc.Completed == 0 && oc.Suspensions == 0 && oc.Resumes == 0 {
			continue
		}
		fmt.Printf("                  %-11v %d/%d  %d\n", k, oc.Completed, oc.Started, oc.Suspensions)
	}

	est := lifetime.Estimate{
		CapacityBytes: cfg.Geometry.Capacity(),
		PageBytes:     cfg.Geometry.PageSize,
		SpecCycles:    flash.PaperTiming().SpecCycles,
		FlushRate:     res.FlushPagesPerSec,
		CleaningCost:  res.CleaningCost,
	}
	fmt.Printf("%s\n", est)

	if err := dev.CheckConsistency(); err != nil {
		log.Fatalf("consistency check failed: %v", err)
	}
}

// runCluster drives the sharded service tier: members small-profile
// devices behind one namespace, loaded with a YCSB Zipfian mix at the
// offered rate for the given simulated window, optionally crashing and
// recovering one member mid-load.
func runCluster(members int, mixClass string, theta float64, crashShard int, rate, seconds, warmSecs float64, seed uint64, check bool) {
	c, err := cluster.New(cluster.Config{
		Members: members,
		Member:  cluster.DefaultMemberConfig(),
		Seed:    seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := c.Stats()
	fmt.Printf("cluster: %d members, %d-page namespace (%d B pages), hash-ring placement (seed %d)\n",
		c.Members(), c.Pages(), c.PageSize(), seed)
	for i, s := range st.Shards {
		fmt.Printf("  member %d: %d pages (%.1f%% of namespace)\n",
			i, s.Pages, 100*float64(s.Pages)/float64(c.Pages()))
	}

	gen, err := workload.YCSB(mixClass, c.Pages(), theta, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s, offered %.0f ops/s\n", gen, rate)

	if warmOps := int(rate * warmSecs); warmOps > 0 {
		warmGen, err := workload.YCSB(mixClass, c.Pages(), theta, seed+2)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cluster.RunLoad(c, cluster.Load{
			Gen: warmGen, Rate: rate, Ops: warmOps, Seed: seed + 3,
		}); err != nil {
			log.Fatal(err)
		}
		c.ResetStats()
	}

	ops := int(rate * seconds)
	if ops < 1 {
		log.Fatalf("rate %.0f over %.2fs offers no operations", rate, seconds)
	}
	l := cluster.Load{
		Gen: gen, Rate: rate, Ops: ops, Seed: seed + 4,
		Verify: crashShard >= 0, Check: check,
	}
	if crashShard >= 0 {
		if crashShard >= members {
			log.Fatalf("crash member %d out of range [0, %d)", crashShard, members)
		}
		l.CrashShard = crashShard
		l.CrashAtOp = ops / 3
		l.RecoverAtOp = 2 * ops / 3
	}
	res, err := cluster.RunLoad(c, l)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noffered %d ops over %.2fs simulated\n", res.Offered, res.Elapsed.Seconds())
	fmt.Printf("completed:        %d ops (%.0f TPS), %d acked, %d failed, %d rejected\n",
		res.Completed, res.TPS, res.Acked, res.Failed, res.Rejected)
	fmt.Printf("sojourn latency:  p50 %dns  p95 %dns  p99 %dns  max %dns\n",
		int64(res.P50), int64(res.P95), int64(res.P99), int64(res.Max))
	fmt.Printf("backpressure:     %d submissions at or over effective depth\n", res.Backpressured)
	if res.Crashed {
		fmt.Printf("crash timeline:   member %d armed @%.2fms, detected @%.2fms, rejoined @%.2fms, drained @%.2fms (drain %.2fms)\n",
			res.CrashShard,
			float64(res.CrashArmedAt)/1e6, float64(res.CrashDetectedAt)/1e6,
			float64(res.RejoinedAt)/1e6, float64(res.DrainedAt)/1e6, float64(res.DrainTime)/1e6)
		rep := res.Recovery
		fmt.Printf("recovery:         %d flushes discarded, %d stray, %d diff units discarded, %d diff entries dropped\n",
			rep.FlushesDiscarded, rep.StrayFlushes, rep.DiffUnitsDiscarded, rep.DiffEntriesDropped)
		fmt.Printf("verification:     %d acknowledged writes read back, %d lost\n", res.VerifiedWrites, res.LostAcked)
		if res.LostAcked != 0 {
			log.Fatalf("%d acknowledged writes lost", res.LostAcked)
		}
	}

	st = c.Stats()
	fmt.Printf("per member:       id  submitted  acked  failed  rejected  backpressured  depth  reads  writes  flushes  cleans\n")
	for i, s := range st.Shards {
		fmt.Printf("                  %-3d %-10d %-6d %-7d %-9d %-14d %-6d %-6d %-7d %-8d %d\n",
			i, s.Submitted, s.Acked, s.Failed, s.Rejected, s.Backpressured,
			s.EffectiveDepth, s.Device.Reads, s.Device.Writes, s.Device.Flushes, s.Device.SegmentCleans)
	}
	if !check {
		// -check runs CheckAll inside the load; otherwise verify the
		// members' internal consistency here before exiting.
		if err := c.CheckAll(); err != nil {
			log.Fatalf("cluster consistency check failed: %v", err)
		}
	}
}
