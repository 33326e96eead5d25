package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

func tinyParams(t *testing.T, w *workloadDef) params {
	return params{
		seed: 7, opsPerRep: 8 * w.sliceOps, reps: 2,
		sz: w.tiny, quick: true, outDir: t.TempDir(),
	}
}

// simulated lists the end-to-end metrics on the simulated clock: they
// must not depend on the machine, the scheduler or the run.
var simulated = []string{
	"sim_ops_s", "sim_lat_mean_ns", "sim_lat_tail_mean_ns", "slo_met_frac", "write_amp", "erases_per_mop",
}

// TestWorkloads runs every workload at a tiny scale under GOMAXPROCS 1
// and 2. runWorkload itself fails the run when the two repetitions'
// simulated results differ, when the read-back after the power failure
// finds a lost write, or when an op fails.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*result
			for procs := 1; procs <= 2; procs++ {
				prev := runtime.GOMAXPROCS(procs)
				res, err := runWorkload(w, tinyParams(t, w))
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("GOMAXPROCS %d: %v", procs, res.problems)
				}
				if res.checked == 0 {
					t.Fatalf("GOMAXPROCS %d: nothing was read back after the power failure", procs)
				}
				runs[procs-1] = res
			}
			for _, name := range simulated {
				if a, b := runs[0].endToEnd[name], runs[1].endToEnd[name]; a != b {
					t.Errorf("%s differs between GOMAXPROCS 1 and 2: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// TestCorruptOracle flips one oracle byte before the read-back: the
// run must then report a lost write.
func TestCorruptOracle(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		p := tinyParams(t, w)
		p.reps, p.corrupt = 1, true
		res, err := runWorkload(w, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct() || res.lost == 0 {
			t.Errorf("%s: a corrupted oracle went unnoticed (lost = %d)", w.name, res.lost)
		}
	}
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type declaration struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

// TestDeclaration keeps BENCHMARK.json and the metrics the program
// emits in step: same workloads, same names, units, directions and
// bounds, and every declared metric actually measured.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, dw := range decl.Workloads {
		if dw.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, dw.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	compare := func(kind string, declared []declaredMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declaredMetric{d.name, d.unit, d.better, d.bound}
			if declared[i] != got {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, declared[i], got)
			}
			if !name.MatchString(d.name) || d.unit == "" {
				t.Errorf("%s metric %q (unit %q) is not well formed", kind, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd)
	compare("per_layer", decl.PerLayer, perLayer)

	for i := range workloads {
		w := &workloads[i]
		plain, err := runWorkload(w, tinyParams(t, w))
		if err != nil {
			t.Fatal(err)
		}
		p := tinyParams(t, w)
		p.reps, p.trace = 1, true
		traced, err := runWorkload(w, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range endToEnd {
			if _, ok := plain.endToEnd[d.name]; !ok {
				t.Errorf("%s: end-to-end metric %s was not measured", w.name, d.name)
			}
		}
		for _, d := range perLayer {
			if _, ok := traced.perLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s was not measured", w.name, d.name)
			}
		}
		if len(traced.perLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d declared metrics", w.name, len(traced.perLayer), len(perLayer))
		}
		for _, name := range simulated {
			if a, b := plain.endToEnd[name], traced.endToEnd[name]; a != b {
				t.Errorf("%s: tracing changed %s: %v vs %v", w.name, name, a, b)
			}
		}
		if _, err := os.Stat(traced.tracePath); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}
