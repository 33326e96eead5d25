// Command bench is the repository's benchmark: four fixed-op-count
// workloads driven from one goroutine against the public surface of
// every layer, measured on two clocks. See README.md.
//
//	go run ./bench                                   # all four workloads
//	go run ./bench -workload tpca_sat -seed 7        # one workload
//	go run ./bench -workload tpca_sat -trace 1       # traced run + layer probes
//	go run ./bench -selfcompare 5                    # noise self-test
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run (default: all four)")
		seed        = flag.Uint64("seed", 1, "seed of the op generators; the device only receives generated ops")
		seconds     = flag.Int("seconds", defaultSeconds, "run length: op counts are fixed multiples of this, never timed")
		trace       = flag.Int("trace", 0, "1: one traced repetition plus the layer probes, reporting per-layer metrics")
		out         = flag.String("out", ".bench_out", "directory for trace files")
		selfcompare = flag.Int("selfcompare", 0, "run the suite 2×N times as sets A and B and compare them")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []workloadDef{*w}
	}
	if *selfcompare > 0 {
		if err := selfCompare(selected, *selfcompare, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for i := range selected {
		w := &selected[i]
		p := params{
			seed: *seed, opsPerRep: w.opsPerSecond * *seconds / repetitions, reps: repetitions,
			sz: w.full, trace: *trace != 0, outDir: *out,
		}
		if p.trace {
			p.reps = 1
		}
		res, err := runWorkload(w, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		report(w, p, res)
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 12

// report prints every metric by name and unit, then the one-line JSON
// result the harness reads.
func report(w *workloadDef, p params, res *result) {
	fmt.Printf("# %s  (op = %s; seed %d; %d × %d ops; %d latency samples per repetition)\n",
		w.name, w.opUnit, p.seed, p.reps, res.attempted/p.reps, res.samples)
	defs, values := endToEnd, res.endToEnd
	if p.trace {
		defs, values = perLayer, res.perLayer
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			res.problems = append(res.problems, "metric "+d.name+" was not measured")
		}
		fmt.Printf("%-32s %18.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	if !p.trace {
		fmt.Printf("%-32s %18.6f %s\n", "bench.rep_spread_frac", res.repSpread, "frac")
		fmt.Printf("%-32s %18d %s\n", "bench.sim_lat_p50_ns", res.p50, "ns")
		fmt.Printf("%-32s %18d %s\n", "bench.sim_lat_p999_ns", res.p999, "ns")
	}
	fmt.Printf("%-32s %18.6f %s\n", "failed_ops_frac", float64(res.failed)/float64(res.attempted), "frac")
	fmt.Printf("%-32s %18d %s (of %d read back after the power failure)\n", "lost_acked_writes", res.lost, "count", res.checked)
	if res.tracePath != "" {
		fmt.Printf("trace written to %s\n", res.tracePath)
	}
	for _, why := range res.problems {
		fmt.Printf("INCORRECT: %s\n", why)
	}
	line, err := json.Marshal(jsonResult{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}
