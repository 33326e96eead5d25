package cleaner

import (
	"testing"

	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/stats"
)

// smallGeo returns a geometry small enough for exhaustive checks:
// 129 segments so the hybrid policy's k values divide Segments-1.
func smallGeo() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerSegment: 64, Segments: 17, Banks: 1}
}

func newHarness(t *testing.T, cfg Config) *Harness {
	t.Helper()
	h, err := NewHarness(smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	arr, err := flash.New(smallGeo(), flash.PaperTiming(), flash.Dataless())
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	remap := func(uint32, uint32, uint32) {}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero logical pages", Config{Kind: Greedy}},
		{"too many logical pages", Config{Kind: Greedy, LogicalPages: 17 * 64}},
		{"hybrid without partition size", Config{Kind: Hybrid, LogicalPages: 100}},
		{"unknown kind", Config{Kind: Kind(99), LogicalPages: 100}},
	}
	for _, tc := range cases {
		if _, err := New(arr, tc.cfg, remap, &c); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := New(arr, Config{Kind: Hybrid, PartitionSegments: 4, LogicalPages: 100}, remap, &c); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Greedy.String() != "greedy" || Hybrid.String() != "hybrid" {
		t.Error("Kind strings wrong")
	}
	if StepCopy.String() != "copy" || StepErase.String() != "erase" {
		t.Error("StepKind strings wrong")
	}
}

func TestLoadFillsEverything(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: Greedy},
		{Kind: Hybrid, PartitionSegments: 1},
		{Kind: Hybrid, PartitionSegments: 4},
		{Kind: Hybrid, PartitionSegments: 16},
	} {
		h := newHarness(t, cfg)
		h.Load()
		if err := h.CheckMapping(); err != nil {
			t.Errorf("%v k=%d: %v", cfg.Kind, cfg.PartitionSegments, err)
		}
		if err := h.Engine().CheckInvariants(); err != nil {
			t.Errorf("%v k=%d: %v", cfg.Kind, cfg.PartitionSegments, err)
		}
	}
}

func TestRewritesInvalidateOldCopies(t *testing.T) {
	h := newHarness(t, Config{Kind: Greedy})
	h.Load()
	for i := 0; i < 5; i++ {
		h.Write(7)
	}
	if err := h.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	// Exactly one live copy of page 7 exists.
	live := 0
	geo := h.Array().Geometry()
	for seg := 0; seg < geo.Segments; seg++ {
		h.Array().LivePages(seg, func(_ int, logical uint32) {
			if logical == 7 {
				live++
			}
		})
	}
	if live != 1 {
		t.Errorf("%d live copies of page 7, want 1", live)
	}
}

func TestSteadyStateInvariants(t *testing.T) {
	configs := []Config{
		{Kind: Greedy},
		{Kind: Hybrid, PartitionSegments: 1},
		{Kind: Hybrid, PartitionSegments: 4},
		{Kind: Hybrid, PartitionSegments: 16},
		{Kind: Hybrid, PartitionSegments: 4, WearThreshold: 3},
	}
	dists := []sim.Bimodal{sim.Uniform, {HotData: 0.1, HotAccess: 0.9}}
	for _, cfg := range configs {
		for _, dist := range dists {
			h := newHarness(t, cfg)
			h.Load()
			r := sim.NewRNG(99)
			n := h.LogicalPages()
			for i := 0; i < 20*n; i++ {
				h.Write(uint32(dist.Draw(r, n)))
				if i%4096 == 0 {
					if err := h.Engine().CheckInvariants(); err != nil {
						t.Fatalf("%v k=%d %v: %v", cfg.Kind, cfg.PartitionSegments, dist, err)
					}
				}
			}
			if err := h.CheckMapping(); err != nil {
				t.Fatalf("%v k=%d %v: %v", cfg.Kind, cfg.PartitionSegments, dist, err)
			}
		}
	}
}

func TestCleaningCostPositive(t *testing.T) {
	h := newHarness(t, Config{Kind: Greedy})
	h.Load()
	cost := h.Run(sim.NewRNG(1), sim.Uniform, 10*h.LogicalPages(), 10*h.LogicalPages())
	if cost <= 0 {
		t.Errorf("uniform greedy cleaning cost = %v, want > 0", cost)
	}
	if cost > 4.5 {
		t.Errorf("uniform greedy cleaning cost = %v, unreasonably high", cost)
	}
}

// TestFigure8Relationships pins the qualitative relationships of the
// paper's Figure 8 at a reduced scale:
//  1. greedy and FIFO costs rise with locality of reference;
//  2. locality gathering stays near u/(1−u)=4 under uniform access and
//     falls as locality rises;
//  3. hybrid-16 is near greedy under uniform access and beats pure
//     locality gathering everywhere.
func TestFigure8Relationships(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	geo := flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 129, Banks: 1}
	run := func(cfg Config, loc string) float64 {
		dist, err := sim.ParseLocality(loc)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHarness(geo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Load()
		n := h.LogicalPages()
		return h.Run(sim.NewRNG(1), dist, 60*n, 20*n)
	}
	greedyUni := run(Config{Kind: Greedy}, "50/50")
	greedyHot := run(Config{Kind: Greedy}, "5/95")
	if greedyHot <= greedyUni {
		t.Errorf("greedy: hot cost %.2f should exceed uniform cost %.2f", greedyHot, greedyUni)
	}
	fifoUni := run(Config{Kind: Hybrid, PartitionSegments: 128}, "50/50")
	fifoHot := run(Config{Kind: Hybrid, PartitionSegments: 128}, "5/95")
	if fifoHot <= fifoUni {
		t.Errorf("fifo: hot cost %.2f should exceed uniform cost %.2f", fifoHot, fifoUni)
	}
	lgUni := run(Config{Kind: Hybrid, PartitionSegments: 1}, "50/50")
	if lgUni < 3.5 || lgUni > 4.5 {
		t.Errorf("LG uniform cost = %.2f, want ≈4 (§4.3)", lgUni)
	}
	lgHot := run(Config{Kind: Hybrid, PartitionSegments: 1}, "5/95")
	if lgHot >= lgUni {
		t.Errorf("LG: hot cost %.2f should fall below uniform cost %.2f", lgHot, lgUni)
	}
	if lgHot >= greedyHot {
		t.Errorf("LG at 5/95 (%.2f) should beat greedy (%.2f)", lgHot, greedyHot)
	}
	hyUni := run(Config{Kind: Hybrid, PartitionSegments: 16}, "50/50")
	hyHot := run(Config{Kind: Hybrid, PartitionSegments: 16}, "5/95")
	if hyUni > greedyUni*1.25 {
		t.Errorf("hybrid uniform cost %.2f should be near greedy %.2f", hyUni, greedyUni)
	}
	if hyUni > lgUni {
		t.Errorf("hybrid uniform cost %.2f should beat LG %.2f", hyUni, lgUni)
	}
	if hyHot > lgHot*1.15 {
		t.Errorf("hybrid hot cost %.2f should not lose to LG %.2f", hyHot, lgHot)
	}
	if hyHot > greedyHot {
		t.Errorf("hybrid hot cost %.2f should beat greedy %.2f", hyHot, greedyHot)
	}
}

func TestWearLeveling(t *testing.T) {
	cfg := Config{Kind: Hybrid, PartitionSegments: 1, WearThreshold: 5}
	h := newHarness(t, cfg)
	h.Load()
	// Hammer a tiny hot set; without wear leveling its home segment
	// would cycle far ahead of the rest.
	r := sim.NewRNG(4)
	dist := sim.Bimodal{HotData: 0.02, HotAccess: 0.98}
	n := h.LogicalPages()
	for i := 0; i < 40*n; i++ {
		h.Write(uint32(dist.Draw(r, n)))
	}
	min, max := h.Array().WearSpread()
	// The spare is excluded from swaps but rotates, so allow threshold
	// plus a couple of cycles of slop.
	if max-min > 5+4 {
		t.Errorf("wear spread = %d, want ≤ threshold+slop", max-min)
	}
	if h.Counters().WearSwaps == 0 {
		t.Error("no wear swaps happened under a skewed workload")
	}
	if err := h.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	if err := h.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWearLevelingDisabled(t *testing.T) {
	h := newHarness(t, Config{Kind: Hybrid, PartitionSegments: 1})
	h.Load()
	r := sim.NewRNG(4)
	dist := sim.Bimodal{HotData: 0.02, HotAccess: 0.98}
	n := h.LogicalPages()
	for i := 0; i < 20*n; i++ {
		h.Write(uint32(dist.Draw(r, n)))
	}
	if h.Counters().WearSwaps != 0 {
		t.Error("wear swaps happened with WearThreshold=0")
	}
}

func TestHomeStability(t *testing.T) {
	h := newHarness(t, Config{Kind: Hybrid, PartitionSegments: 4})
	h.Load()
	e := h.Engine()
	// A mapped page's home must match the partition of its segment.
	for lpn := 0; lpn < h.LogicalPages(); lpn += 37 {
		ppn := h.table[lpn]
		home := e.Home(uint32(lpn), true, ppn)
		seg, _ := h.Array().Geometry().Split(ppn)
		if got := e.PartitionOf(seg); got != home {
			t.Fatalf("page %d: home %d but lives in partition %d", lpn, home, got)
		}
	}
}

func TestGreedyHomeAlwaysZero(t *testing.T) {
	h := newHarness(t, Config{Kind: Greedy})
	h.Load()
	if got := h.Engine().Home(5, true, h.table[5]); got != 0 {
		t.Errorf("greedy Home = %d, want 0", got)
	}
	if h.Engine().Partitions() != 1 {
		t.Errorf("greedy Partitions = %d, want 1", h.Engine().Partitions())
	}
}

func TestFlushWorkReported(t *testing.T) {
	h := newHarness(t, Config{Kind: Greedy})
	h.Load()
	// Fill the active segment's free space to force a clean, capturing
	// the work steps.
	r := sim.NewRNG(2)
	n := h.LogicalPages()
	sawCopy, sawErase := false, false
	for i := 0; i < 5*n; i++ {
		lpn := uint32(sim.Uniform.Draw(r, n))
		old := h.table[lpn]
		home := h.Engine().Home(lpn, old != flash.NoPage, old)
		if old != flash.NoPage {
			h.Array().Invalidate(old)
			h.table[lpn] = flash.NoPage
		}
		ppn, work := h.Engine().Flush(lpn, home, nil)
		h.table[lpn] = ppn
		for _, step := range work {
			switch step.Kind {
			case StepCopy:
				if step.Pages <= 0 {
					t.Fatal("copy step with no pages")
				}
				sawCopy = true
			case StepErase:
				sawErase = true
			}
		}
	}
	if !sawCopy || !sawErase {
		t.Errorf("work steps incomplete: copy=%v erase=%v", sawCopy, sawErase)
	}
}

func TestOutOfRangeWritePanics(t *testing.T) {
	h := newHarness(t, Config{Kind: Greedy})
	h.Load()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range write did not panic")
		}
	}()
	h.Write(uint32(h.LogicalPages()))
}

func TestNoRedistributeAblation(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 129, Banks: 1}
	dist := sim.Bimodal{HotData: 0.05, HotAccess: 0.95}
	costs := make(map[bool]float64)
	for _, nored := range []bool{false, true} {
		h, err := NewHarness(geo, Config{Kind: Hybrid, PartitionSegments: 1, NoRedistribute: nored})
		if err != nil {
			t.Fatal(err)
		}
		h.Load()
		n := h.LogicalPages()
		costs[nored] = h.Run(sim.NewRNG(1), dist, 40*n, 10*n)
	}
	if costs[false] >= costs[true] {
		t.Errorf("redistribution should lower hot-workload cost: with=%.2f without=%.2f",
			costs[false], costs[true])
	}
}

// TestWearMemoSurvivesResetStats pins the wear-verdict memo against the
// one thing that could silently defeat it: measurement counters being
// zeroed between two cleans (Device.ResetStats after warm-up). Twin
// engines take the same skewed write stream with the counters reset at
// the same random instants; one keeps its memo, the other has it
// cleared before every write so that it rescans every segment the way
// the engine did before the memo existed. A memo keyed on a counter
// that Reset rewinds would revisit an old key with new erase counts
// behind it and sit on a due swap; keyed on the array's lifetime erase
// total it cannot, and the twins stay in lockstep.
func TestWearMemoSurvivesResetStats(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: Hybrid, PartitionSegments: 1, WearThreshold: 2},
		{Kind: Hybrid, PartitionSegments: 4, WearThreshold: 3},
		{Kind: Greedy, WearThreshold: 2},
	} {
		memo, rescan := newHarness(t, cfg), newHarness(t, cfg)
		memo.Load()
		rescan.Load()
		r := sim.NewRNG(9)
		dist := sim.Bimodal{HotData: 0.02, HotAccess: 0.98}
		n := memo.LogicalPages()
		var swaps int64
		for i := 0; i < 30*n; i++ {
			// First half: reset right after every clean, so a key built
			// from the resettable counters would read the same after each
			// one. Second half: reset at random instants.
			if first := i < 15*n; first && memo.Counters().SegmentCleans > 0 || !first && r.Intn(97) == 0 {
				swaps += memo.Counters().WearSwaps
				memo.ResetCounters()
				rescan.ResetCounters()
			}
			lpn := uint32(dist.Draw(r, n))
			rescan.Engine().wearQuiet = false
			memo.Write(lpn)
			rescan.Write(lpn)
			if a, b := memo.Counters(), rescan.Counters(); a != b {
				t.Fatalf("%v write %d: memoised engine %+v, rescanning engine %+v", cfg.Kind, i, a, b)
			}
			if a, b := memo.Engine().Spare(), rescan.Engine().Spare(); a != b {
				t.Fatalf("%v write %d: spare %d vs %d", cfg.Kind, i, a, b)
			}
			if e := memo.Engine(); e.wearQuiet && e.wearQuietAt == e.wearKey() {
				if _, _, due := e.wearDue(); due {
					t.Fatalf("%v write %d: memo says quiet while a swap is due", cfg.Kind, i)
				}
			}
		}
		if swaps+memo.Counters().WearSwaps == 0 {
			t.Errorf("%v: no wear swap ever happened; the test exercised nothing", cfg.Kind)
		}
		if err := memo.CheckMapping(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushAvoidingAllocs pins the §6 bank-steered flush at zero
// allocations in steady state: placement, front upkeep (ensureFronts'
// per-bank scratch) and the cleans it forces all reuse engine-owned
// memory.
func TestFlushAvoidingAllocs(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerSegment: 64, Segments: 32, Banks: 4}
	h, err := NewHarness(geo, Config{Kind: Hybrid, PartitionSegments: 4, BankStagger: geo.Banks})
	if err != nil {
		t.Fatal(err)
	}
	h.Load()
	r := sim.NewRNG(3)
	n := h.LogicalPages()
	busy := 0
	avoid := func(bank int) bool { return bank == busy }
	write := func() {
		for i := 0; i < 16; i++ {
			lpn := uint32(sim.Uniform.Draw(r, n))
			old := h.table[lpn]
			home := h.eng.Home(lpn, true, old)
			h.arr.Invalidate(old)
			h.table[lpn], _ = h.eng.FlushAvoiding(lpn, home, nil, avoid)
			busy = (busy + 1) % geo.Banks
		}
	}
	for i := 0; i < 4*n/16; i++ {
		write() // steady state: every partition has cleaned
	}
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Errorf("16 steady-state FlushAvoiding calls allocate %.2f times, want 0", avg)
	}
	if err := h.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}
