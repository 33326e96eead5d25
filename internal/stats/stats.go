// Package stats collects the measurements the eNVy evaluation reports:
// latency distributions for host reads and writes, counters for Flash
// operations, and a breakdown of where the controller spends its time
// (reads, flushing, cleaning, erasing, idle — §5.3).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"envy/internal/sim"
)

// Latency accumulates a distribution of durations. It keeps exact
// moments (count/sum/min/max) plus a log-scaled histogram for
// percentile estimates, so memory use is constant regardless of the
// number of samples.
type Latency struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	lastD   sim.Duration // memo: bucketFor(lastD) == lastI (zero value is valid)
	lastI   int
	buckets [128]int64 // bucket i covers [2^(i/4) ns ...), quarter-powers of two
}

// Quarter-octave thresholds in 1.63 fixed point: the smallest 64-bit
// values at or above 2^(63+j/4) for j = 1, 2, 3. A positive d, shifted
// left until its top bit is bit 63, has passed j quarter-powers of two
// within its octave exactly when it reaches the j-th of them.
const (
	quarter1 = 0x9837f0518db8a970
	quarter2 = 0xb504f333f9de6485
	quarter3 = 0xd744fccad69d6af5
)

// bucketFor returns floor(4*log2(d)) clamped to the histogram — four
// buckets per octave — in integer arithmetic: the octave is the bit
// length, the quarter three compares against the thresholds above.
func bucketFor(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	octave := bits.Len64(uint64(d)) - 1
	if 4*octave >= len(Latency{}.buckets) {
		return len(Latency{}.buckets) - 1
	}
	i := 4 * octave
	switch m := uint64(d) << (63 - octave); {
	case m >= quarter3:
		i += 3
	case m >= quarter2:
		i += 2
	case m >= quarter1:
		i++
	}
	return i
}

// Record adds one sample. Successive samples tend to repeat (a device
// access path produces a handful of distinct latencies), so the bucket
// index is memoized.
func (l *Latency) Record(d sim.Duration) { l.RecordN(d, 1) }

// RecordN adds n samples of the same duration — exactly equivalent to
// n Record calls, in one step. The controller's span kernel accounts a
// run of identical word accesses this way.
func (l *Latency) RecordN(d sim.Duration, n int64) {
	if n <= 0 {
		return
	}
	v := int64(d)
	if l.count == 0 || v < l.min {
		l.min = v
	}
	if l.count == 0 || v > l.max {
		l.max = v
	}
	l.count += n
	l.sum += n * v
	if d != l.lastD {
		l.lastD = d
		l.lastI = bucketFor(d)
	}
	l.buckets[l.lastI] += n
}

// Count returns the number of recorded samples.
func (l *Latency) Count() int64 { return l.count }

// Mean returns the average sample, or 0 if empty.
func (l *Latency) Mean() sim.Duration {
	if l.count == 0 {
		return 0
	}
	return sim.Duration(l.sum / l.count)
}

// Min returns the smallest sample, or 0 if empty.
func (l *Latency) Min() sim.Duration {
	if l.count == 0 {
		return 0
	}
	return sim.Duration(l.min)
}

// Max returns the largest sample, or 0 if empty.
func (l *Latency) Max() sim.Duration {
	if l.count == 0 {
		return 0
	}
	return sim.Duration(l.max)
}

// Percentile estimates the p-th percentile (p in [0,100]) from the
// histogram. The estimate is the lower bound of the bucket containing
// the percentile, clamped to [Min, Max].
func (l *Latency) Percentile(p float64) sim.Duration {
	if l.count == 0 {
		return 0
	}
	if p >= 100 {
		return sim.Duration(l.max)
	}
	target := int64(p / 100 * float64(l.count))
	if target >= l.count {
		target = l.count - 1
	}
	var seen int64
	for i, n := range l.buckets {
		seen += n
		if seen > target {
			v := int64(math.Pow(2, float64(i)/4))
			if v < l.min {
				v = l.min
			}
			if v > l.max {
				v = l.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(l.max)
}

// Reset discards all samples.
func (l *Latency) Reset() { *l = Latency{} }

// String summarizes the distribution for reports.
func (l *Latency) String() string {
	if l.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%dns p50=%dns p99=%dns max=%dns",
		l.count, int64(l.Mean()), int64(l.Percentile(50)), int64(l.Percentile(99)), l.max)
}

// Activity identifies what the controller is doing with its time.
// The categories are the ones the paper reports in §5.3.
type Activity int

// Controller activities.
const (
	Idle Activity = iota
	Reading
	Writing // host write servicing, including copy-on-write transfers
	Flushing
	Cleaning // live-data copies during segment cleaning
	Erasing
	numActivities
)

// String returns the activity name.
func (a Activity) String() string {
	switch a {
	case Idle:
		return "idle"
	case Reading:
		return "reading"
	case Writing:
		return "writing"
	case Flushing:
		return "flushing"
	case Cleaning:
		return "cleaning"
	case Erasing:
		return "erasing"
	default:
		// Covers numActivities and any out-of-range value.
		return fmt.Sprintf("Activity(%d)", int(a))
	}
}

// Breakdown accumulates time spent per controller activity.
type Breakdown struct {
	spent [numActivities]sim.Duration
}

// Add charges d of simulated time to activity a.
func (b *Breakdown) Add(a Activity, d sim.Duration) {
	if a < 0 || a >= numActivities {
		panic("stats: unknown activity")
	}
	b.spent[a] += d
}

// Get returns the time charged to a.
func (b *Breakdown) Get(a Activity) sim.Duration { return b.spent[a] }

// Total returns the time charged across all activities, including idle.
func (b *Breakdown) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b.spent {
		t += d
	}
	return t
}

// Fraction returns the share of total (non-idle plus idle) time spent
// in a, or 0 if nothing has been recorded.
func (b *Breakdown) Fraction(a Activity) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.spent[a]) / float64(t)
}

// BusyFraction returns the share of time spent in a among busy
// (non-idle) time only, matching how §5.3 reports its percentages.
func (b *Breakdown) BusyFraction(a Activity) float64 {
	busy := b.Total() - b.spent[Idle]
	if busy == 0 {
		return 0
	}
	return float64(b.spent[a]) / float64(busy)
}

// Reset discards all charged time.
func (b *Breakdown) Reset() { *b = Breakdown{} }

// String renders the breakdown as percentages of total time.
func (b *Breakdown) String() string {
	t := b.Total()
	if t == 0 {
		return "(no time recorded)"
	}
	parts := make([]string, 0, int(numActivities))
	for a := Idle; a < numActivities; a++ {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", a, 100*b.Fraction(a)))
	}
	return strings.Join(parts, " ")
}

// Counters tracks the Flash-level operation counts that the cleaning
// analysis (§4.1) and lifetime estimate (§5.5) are computed from.
type Counters struct {
	HostReads  int64 // host-issued read accesses
	HostWrites int64 // host-issued write accesses

	CopyOnWrites int64 // Flash→SRAM page copies triggered by host writes
	BufferHits   int64 // host writes absorbed by a page already in SRAM

	Flushes       int64 // pages programmed from the write buffer to Flash
	CleanCopies   int64 // live pages programmed by the cleaner
	SegmentCleans int64 // segments cleaned
	Erases        int64 // segment erase operations
	WearSwaps     int64 // wear-leveling segment swaps

	MMUHits   int64 // translations served by the MMU cache
	MMUMisses int64 // translations requiring a page-table lookup

	// Differential flush policy (page-differential logging). All four
	// stay zero under the full-page policy.
	DiffRecordsWritten int64 // diff records programmed into shared units
	DiffUnitPrograms   int64 // shared unit pages programmed
	DiffMerges         int64 // base∪chain merges performed (read miss, COW, clean)
	DiffPromotions     int64 // chain-length-bound promotions to a full-page flush
}

// CleaningCost returns the paper's Flash cleaning cost metric: cleaner
// program operations per page flushed from the write buffer (§4.1).
// Returns 0 when nothing has been flushed.
func (c *Counters) CleaningCost() float64 {
	if c.Flushes == 0 {
		return 0
	}
	return float64(c.CleanCopies) / float64(c.Flushes)
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// Distribution summarizes a set of integer observations (for example
// per-segment erase counts in the wear-leveling analysis).
type Distribution struct {
	values []int64
}

// Observe records one value.
func (d *Distribution) Observe(v int64) { d.values = append(d.values, v) }

// Count returns the number of observations.
func (d *Distribution) Count() int { return len(d.values) }

// Summary returns min, max, mean and standard deviation.
func (d *Distribution) Summary() (min, max int64, mean, stddev float64) {
	if len(d.values) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int64(nil), d.values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	min, max = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	mean = sum / float64(len(sorted))
	var sq float64
	for _, v := range sorted {
		sq += (float64(v) - mean) * (float64(v) - mean)
	}
	stddev = math.Sqrt(sq / float64(len(sorted)))
	return min, max, mean, stddev
}

// DepthGauge tracks a time-weighted queue-depth statistic on the
// simulated clock: the host engine feeds it every queue-length change
// and reads back the mean outstanding depth and the high-water mark.
type DepthGauge struct {
	started  bool
	start    sim.Time
	last     sim.Time
	depth    int
	max      int
	integral float64 // depth-nanoseconds
}

// Set records that the tracked depth is d as of now. Calls must carry
// a non-decreasing clock.
func (g *DepthGauge) Set(now sim.Time, d int) {
	if !g.started {
		g.started = true
		g.start = now
	} else if now.Sub(g.last) > 0 {
		g.integral += float64(g.depth) * float64(now.Sub(g.last))
	}
	g.last = now
	g.depth = d
	if d > g.max {
		g.max = d
	}
}

// Mean returns the time-weighted mean depth from the first Set through
// now. Zero observations give zero.
func (g *DepthGauge) Mean(now sim.Time) float64 {
	if !g.started {
		return 0
	}
	integral := g.integral
	if now.Sub(g.last) > 0 {
		integral += float64(g.depth) * float64(now.Sub(g.last))
	}
	elapsed := float64(now.Sub(g.start))
	if elapsed <= 0 {
		return float64(g.depth)
	}
	return integral / elapsed
}

// Max returns the largest depth ever Set.
func (g *DepthGauge) Max() int { return g.max }

// Reset clears the gauge.
func (g *DepthGauge) Reset() { *g = DepthGauge{} }
