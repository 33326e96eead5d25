package stats

import (
	"math"
	"strings"
	"testing"

	"envy/internal/sim"
)

func TestLatencyMoments(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 || l.Count() != 0 {
		t.Error("empty Latency should report zeros")
	}
	for _, d := range []sim.Duration{100, 200, 300} {
		l.Record(d)
	}
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 200 {
		t.Errorf("Mean = %v, want 200", l.Mean())
	}
	if l.Min() != 100 || l.Max() != 300 {
		t.Errorf("Min/Max = %v/%v, want 100/300", l.Min(), l.Max())
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l Latency
	// 99 samples at ~160ns, one at 50µs: p50 must be near 160, p99.5+ near max.
	for i := 0; i < 99; i++ {
		l.Record(160)
	}
	l.Record(50000)
	p50 := l.Percentile(50)
	if p50 < 100 || p50 > 320 {
		t.Errorf("p50 = %v, want near 160ns", p50)
	}
	if p100 := l.Percentile(100); p100 != 50000 {
		t.Errorf("p100 = %v, want 50000 (max)", p100)
	}
}

func TestLatencyPercentileMonotone(t *testing.T) {
	var l Latency
	r := []sim.Duration{160, 200, 4000, 180, 7200, 165, 210, 50000000}
	for _, d := range r {
		l.Record(d)
	}
	prev := sim.Duration(0)
	for p := 0.0; p <= 100; p += 5 {
		v := l.Percentile(p)
		if v < prev {
			t.Fatalf("Percentile(%v) = %v < previous %v", p, v, prev)
		}
		prev = v
	}
}

func TestLatencyReset(t *testing.T) {
	var l Latency
	l.Record(100)
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestLatencyZeroAndNegative(t *testing.T) {
	var l Latency
	l.Record(0)
	l.Record(1)
	if l.Count() != 2 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Min() != 0 {
		t.Errorf("Min = %v", l.Min())
	}
}

func TestLatencyString(t *testing.T) {
	var l Latency
	if got := l.String(); got != "n=0" {
		t.Errorf("empty String = %q", got)
	}
	l.Record(180)
	if s := l.String(); !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=180ns") {
		t.Errorf("String = %q", s)
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(Reading, 40)
	b.Add(Cleaning, 30)
	b.Add(Flushing, 15)
	b.Add(Erasing, 15)
	if got := b.Total(); got != 100 {
		t.Errorf("Total = %v", got)
	}
	if got := b.Fraction(Reading); got != 0.40 {
		t.Errorf("Fraction(Reading) = %v", got)
	}
	b.Add(Idle, 100)
	if got := b.BusyFraction(Reading); got != 0.40 {
		t.Errorf("BusyFraction(Reading) = %v, want idle excluded", got)
	}
	if got := b.Fraction(Reading); got != 0.20 {
		t.Errorf("Fraction(Reading) with idle = %v", got)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	var b Breakdown
	if b.Fraction(Reading) != 0 || b.BusyFraction(Cleaning) != 0 {
		t.Error("empty breakdown fractions should be 0")
	}
	if got := b.String(); got != "(no time recorded)" {
		t.Errorf("String = %q", got)
	}
}

func TestActivityString(t *testing.T) {
	names := map[Activity]string{
		Idle: "idle", Reading: "reading", Writing: "writing",
		Flushing: "flushing", Cleaning: "cleaning", Erasing: "erasing",
	}
	for a, want := range names {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestCountersCleaningCost(t *testing.T) {
	var c Counters
	if c.CleaningCost() != 0 {
		t.Error("cost with no flushes should be 0")
	}
	c.Flushes = 100
	c.CleanCopies = 197
	if got := c.CleaningCost(); got != 1.97 {
		t.Errorf("CleaningCost = %v, want 1.97", got)
	}
}

func TestCountersReset(t *testing.T) {
	a := Counters{HostReads: 1, Flushes: 2, CleanCopies: 3, Erases: 4, MMUMisses: 5}
	a.Reset()
	if a != (Counters{}) {
		t.Errorf("Reset left %+v", a)
	}
}

func TestDistributionSummary(t *testing.T) {
	var d Distribution
	if min, max, mean, sd := d.Summary(); min != 0 || max != 0 || mean != 0 || sd != 0 {
		t.Error("empty distribution should summarize to zeros")
	}
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Observe(v)
	}
	min, max, mean, sd := d.Summary()
	if min != 2 || max != 9 {
		t.Errorf("min/max = %d/%d", min, max)
	}
	if mean != 5 {
		t.Errorf("mean = %v", mean)
	}
	if sd < 1.99 || sd > 2.01 {
		t.Errorf("stddev = %v, want 2", sd)
	}
	if d.Count() != 8 {
		t.Errorf("Count = %d", d.Count())
	}
}

// floatBucketFor is the formula the integer bucketFor replaced:
// floor(4*log2(d)) through math.Log2, clamped to the histogram.
func floatBucketFor(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	i := int(4 * math.Log2(float64(d)))
	if i >= len(Latency{}.buckets) {
		i = len(Latency{}.buckets) - 1
	}
	return i
}

// TestBucketForMatchesFloat: the integer bucketing must place every
// duration exactly where the floating-point formula did, or recorded
// percentiles would move.
func TestBucketForMatchesFloat(t *testing.T) {
	check := func(d sim.Duration) {
		t.Helper()
		if got, want := bucketFor(d), floatBucketFor(d); got != want {
			t.Fatalf("bucketFor(%d) = %d, the float formula gives %d", d, got, want)
		}
	}
	for d := sim.Duration(-1); d <= 1<<20; d++ {
		check(d)
	}
	for k := 0; k <= 40; k++ {
		p := sim.Duration(1) << k
		check(p - 1)
		check(p)
		check(p + 1)
	}
	check(math.MaxInt64)
	// Either side of every quarter-octave boundary the histogram has.
	for i := 1; i < len(Latency{}.buckets); i++ {
		edge := sim.Duration(math.Exp2(float64(i) / 4))
		for d := edge - 2; d <= edge+2; d++ {
			check(d)
		}
	}
	r := sim.NewRNG(14)
	for n := 0; n < 1_000_000; n++ {
		check(sim.Duration(r.Uint64() >> (24 + r.Intn(40))))
	}
}
