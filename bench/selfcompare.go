package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// selfCompare is the noise self-test: it runs every selected workload
// 2×n times in fresh processes, alternating set A (seeds 1..n) and set
// B (seeds n+1..2n), and prints for each end-to-end metric both
// medians, both quartile spreads as a share of the median, and how far
// the medians are apart, each against the metric's bound. Identical
// code on both sides should pass every row; a row that does not is the
// benchmark's own noise.
func selfCompare(ws []workloadDef, n, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	noisy := 0
	for i := range ws {
		w := &ws[i]
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for run := 0; run < n; run++ {
			for set := 0; set < 2; set++ {
				seed := 1 + run + set*n
				out, err := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.Itoa(seconds)).Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res jsonResult
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: run was not correct", w.name, seed)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.name, seed)
			}
		}
		fmt.Printf("# %s: %d runs per set, %d s each\n", w.name, n, seconds)
		fmt.Printf("%-22s %14s %14s %9s %9s %9s %7s  %s\n",
			"metric", "median A", "median B", "spread A", "spread B", "B worse", "bound", "verdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.name != "setup_s" && math.Max(sa, sb) > d.bound:
				verdict = "SPREAD OVER BOUND"
				noisy++
			case worse > d.bound:
				verdict = "MEDIANS APART"
				noisy++
			case d.name != "setup_s" && math.Max(sa, sb) > d.bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("%-22s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				d.name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.bound, verdict)
		}
	}
	if noisy > 0 {
		return fmt.Errorf("%d metric rows outside their bound with identical code on both sides", noisy)
	}
	return nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, quartiles as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method).
func quartileSpread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		lo = min(max(lo, 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if len(s) < 2 {
		return 0
	}
	return (q(0.75) - q(0.25)) / median(s)
}
