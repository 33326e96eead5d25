// Command experiments regenerates the tables and figures of the eNVy
// paper's evaluation (§4–§5).
//
// Usage:
//
//	experiments [-scale small|paper] [-json] [experiment ...]
//
// With no arguments every experiment runs. Individual experiments:
// fig1, fig6, fig8, fig9, fig10, fig12, fig13, fig14, fig15,
// breakdown, lifetime, parallel, hostdepth, ablations, maptier,
// diffflush, cluster.
//
// -json additionally writes BENCH_results.json: one record per
// experiment with its headline metrics, the scale profile, the seed,
// and the wall time it took — the same metric vocabulary the
// bench_test.go benchmarks report, for machine comparison across
// commits.
//
// The default small scale finishes in about a minute; -scale paper
// runs the full 2 GB Figure 12 configuration and needs ~2.5 GB of
// memory and substantially more time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"envy/internal/experiments"
	"envy/internal/profiling"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	jsonFlag := flag.Bool("json", false, "also write BENCH_results.json with machine-readable results")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var sc experiments.Scale
	switch *scaleFlag {
	case "small":
		sc = experiments.Small()
	case "paper":
		sc = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := flag.Args()
	all := len(want) == 0
	selected := func(name string) bool {
		if all {
			return true
		}
		for _, w := range want {
			if w == name {
				return true
			}
		}
		return false
	}

	out := os.Stdout
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}

	// record accumulates the machine-readable results for -json: the
	// experiments themselves never read the wall clock (simulated-time
	// territory), so the driver times them here.
	var records []experiments.BenchRecord
	record := func(name string, metrics map[string]float64, start time.Time) {
		records = append(records, experiments.BenchRecord{
			Name:        name,
			Scale:       sc.Name,
			Seed:        sc.Seed,
			Metrics:     metrics,
			WallSeconds: time.Since(start).Seconds(),
		})
	}

	// Rate sweep serves both fig13 and fig15; run it once.
	var rateSweep []experiments.RatePoint
	needSweep := selected("fig13") || selected("fig15")

	if selected("fig1") {
		experiments.Fig1Table().Print(out)
	}
	if selected("fig6") {
		start := time.Now()
		rows, err := experiments.Fig6(sc)
		if err != nil {
			fail("fig6", err)
		}
		experiments.Fig6Table(rows).Print(out)
		record("fig6", experiments.Fig6Metrics(rows), start)
	}
	if selected("fig8") {
		start := time.Now()
		rows, err := experiments.Fig8(sc)
		if err != nil {
			fail("fig8", err)
		}
		experiments.Fig8Table(rows).Print(out)
		record("fig8", experiments.Fig8Metrics(rows), start)
	}
	if selected("fig9") {
		start := time.Now()
		rows, err := experiments.Fig9(sc)
		if err != nil {
			fail("fig9", err)
		}
		experiments.Fig9Table(rows).Print(out)
		record("fig9", experiments.Fig9Metrics(rows), start)
	}
	if selected("fig10") {
		start := time.Now()
		rows, err := experiments.Fig10(sc)
		if err != nil {
			fail("fig10", err)
		}
		experiments.Fig10Table(rows).Print(out)
		record("fig10", experiments.Fig10Metrics(rows), start)
	}
	if selected("fig12") {
		experiments.Fig12Table(sc).Print(out)
	}
	if needSweep {
		start := time.Now()
		var err error
		rateSweep, err = experiments.RateSweep(sc)
		if err != nil {
			fail("rate sweep", err)
		}
		record("rate_sweep", experiments.RateMetrics(rateSweep), start)
	}
	if selected("fig13") {
		experiments.Fig13Table(rateSweep).Print(out)
	}
	if selected("fig14") {
		start := time.Now()
		pts, labels, err := experiments.Fig14(sc)
		if err != nil {
			fail("fig14", err)
		}
		experiments.Fig14Table(pts, labels).Print(out)
		record("fig14", experiments.Fig14Metrics(pts, labels), start)
	}
	if selected("fig15") {
		experiments.Fig15Table(rateSweep).Print(out)
	}
	if selected("breakdown") {
		start := time.Now()
		r, err := experiments.Breakdown(sc)
		if err != nil {
			fail("breakdown", err)
		}
		experiments.BreakdownTable(r).Print(out)
		record("breakdown", experiments.BreakdownMetrics(r), start)
	}
	if selected("lifetime") {
		start := time.Now()
		r, err := experiments.Lifetime(sc)
		if err != nil {
			fail("lifetime", err)
		}
		experiments.LifetimeTable(r).Print(out)
		record("lifetime", experiments.LifetimeMetrics(r), start)
	}
	if selected("parallel") {
		start := time.Now()
		pts, err := experiments.Parallel(sc)
		if err != nil {
			fail("parallel", err)
		}
		experiments.ParallelTable(pts).Print(out)
		record("parallel", experiments.ParallelMetrics(pts), start)
	}
	if selected("hostdepth") {
		start := time.Now()
		pts, err := experiments.HostDepth(sc)
		if err != nil {
			fail("hostdepth", err)
		}
		experiments.HostDepthTable(pts).Print(out)
		record("hostdepth", experiments.HostDepthMetrics(pts), start)
	}
	if selected("ablations") {
		start := time.Now()
		rows, err := experiments.PolicyAblations(sc)
		if err != nil {
			fail("ablations", err)
		}
		experiments.AblationTable(rows).Print(out)
		record("ablations", experiments.AblationMetrics(rows), start)
	}
	if selected("maptier") {
		start := time.Now()
		res, err := experiments.MapTier(sc)
		if err != nil {
			fail("maptier", err)
		}
		experiments.MapTierTable(res).Print(out)
		record("maptier", experiments.MapTierMetrics(res), start)
	}
	if selected("diffflush") {
		start := time.Now()
		res, err := experiments.DiffFlush(sc)
		if err != nil {
			fail("diffflush", err)
		}
		experiments.DiffFlushTable(res).Print(out)
		record("diffflush", experiments.DiffFlushMetrics(res), start)
	}
	if selected("cluster") {
		start := time.Now()
		res, err := experiments.Cluster(sc)
		if err != nil {
			fail("cluster", err)
		}
		experiments.ClusterTable(res).Print(out)
		metrics := experiments.ClusterMetrics(res)
		metrics["num_cpu"] = float64(runtime.NumCPU())
		record("cluster", metrics, start)
	}

	if *jsonFlag {
		f, err := os.Create("BENCH_results.json")
		if err != nil {
			fail("json", err)
		}
		if err := experiments.WriteBenchJSON(f, records); err != nil {
			f.Close()
			fail("json", err)
		}
		if err := f.Close(); err != nil {
			fail("json", err)
		}
		fmt.Fprintf(os.Stderr, "wrote BENCH_results.json (%d records)\n", len(records))
	}
}
