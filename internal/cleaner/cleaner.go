// Package cleaner implements eNVy's Flash space reclamation (§3.4, §4):
// choosing where flushed pages land, which segments to clean, how live
// data is redistributed to exploit locality, and how wear is leveled.
//
// Two policy families are provided:
//
//   - Greedy (§4.2): one global active segment accepts all flushes;
//     when it fills, the segment with the most invalidated space is
//     cleaned and becomes the new active segment.
//
//   - Hybrid (§4.4): segments are grouped into partitions. Locality
//     gathering (§4.3) manages data *between* partitions — each page is
//     flushed back to its home partition, and partitions shed data to
//     neighbors to equalize (cleaning frequency × cleaning cost) — while
//     segments *within* a partition are cleaned in FIFO order. The
//     paper's pure policies are the ends of the partition-size spectrum:
//     PartitionSegments=1 is pure locality gathering and
//     PartitionSegments=Segments is pure FIFO.
//
// The engine mutates the Flash array eagerly and returns the work it
// performed as an ordered list of Steps; the timed controller plays the
// steps out on the simulated clock (where they are preemptible long
// operations), and untimed policy studies simply count them.
package cleaner

import (
	"fmt"

	"envy/internal/flash"
	"envy/internal/stats"
)

// Kind selects the cleaning policy family.
type Kind int

// Policy families. Hybrid covers the paper's locality-gathering and
// FIFO policies via PartitionSegments (1 and Segments respectively).
const (
	Greedy Kind = iota
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case Greedy:
		return "greedy"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config parameterizes the cleaning engine.
type Config struct {
	Kind Kind

	// PartitionSegments is the number of adjoining segments per
	// partition for the Hybrid policy (k in §4.4; 16 in the paper's
	// simulated system). The initially spare segment is left out of
	// the partitioning, so one partition may hold k-1 segments.
	PartitionSegments int

	// LogicalPages is the size of the logical address space in pages.
	// The paper caps it at 80% of the physical array (§4.1).
	LogicalPages int

	// WearThreshold is the erase-cycle spread that triggers a
	// wear-leveling swap (100 in §4.3). Zero disables wear leveling.
	WearThreshold int64

	// MoveQuantum bounds how many pages one redistribution step may
	// move between partitions. Zero selects a default of 1/16 of a
	// segment.
	MoveQuantum int

	// ProductSlack is the relative margin by which a partition's
	// frequency×cost product must exceed the average before it sheds
	// data (default 0.4 — wide enough that estimation noise under a
	// uniform workload does not cause spurious data movement, which
	// would break the paper's "fixed cleaning cost of 4" property).
	ProductSlack float64

	// RateDecay is the per-flush exponential decay applied to
	// per-partition flush-rate estimates (default 0.99995, an
	// effective window of ~20k flushes).
	RateDecay float64

	// MinShedUtilization stops a partition from shedding data once its
	// utilization falls to this level (default 0.55). Below roughly
	// half-full, FIFO cleaning within the partition is already nearly
	// free, and further shedding only exports the partition's hot
	// working set — whose write traffic follows it into colder
	// partitions and defeats the locality gathering.
	MinShedUtilization float64

	// NoRedistribute disables inter-partition data movement, leaving
	// only flush-back-to-home and FIFO-within-partition. Used by the
	// ablation benchmarks.
	NoRedistribute bool

	// BankStagger, when positive, rotates each hybrid partition's
	// initial segment FIFO so active segments start spread across this
	// many banks. With PartitionSegments a multiple of the bank count
	// (the paper's 16 segments over 8 banks), every partition's active
	// segment would otherwise sit on the same bank forever — the FIFO
	// rotation keeps them in phase — and §6 bank-parallel flushing
	// could never find two targets on distinct banks. Zero keeps the
	// legacy in-phase layout (the single-lane controller does not
	// care, and existing golden outputs depend on it).
	BankStagger int
}

// StepKind identifies one unit of cleaning work.
type StepKind int

// Cleaning work kinds. Copies are page read+program pairs charged at
// the destination segment's program time; erases are charged at the
// victim's erase time.
const (
	StepCopy StepKind = iota
	StepErase
)

func (k StepKind) String() string {
	if k == StepCopy {
		return "copy"
	}
	return "erase"
}

// Step records work the engine performed: Pages copies into Seg, or an
// erase of Seg. Wear marks work done on behalf of a wear-leveling swap
// rather than a segment clean, so the timed controller can account the
// two as distinct operation kinds.
type Step struct {
	Kind  StepKind
	Seg   int
	Pages int // number of page programs for StepCopy; 0 for StepErase
	Wear  bool
}

// IntentKind identifies which multi-step cleaner operation an Intent
// records.
type IntentKind int

// Cleaner intent kinds.
const (
	IntentNone IntentKind = iota
	IntentClean
	IntentWearSwap
)

func (k IntentKind) String() string {
	switch k {
	case IntentNone:
		return "none"
	case IntentClean:
		return "clean"
	case IntentWearSwap:
		return "wear-swap"
	}
	return fmt.Sprintf("IntentKind(%d)", int(k))
}

// Intent is the cleaner's battery-backed operation record (§3.4: the
// cleaning state survives power failure). It is written before the
// first Flash mutation of a segment clean or wear swap and cleared
// after the last, so after a crash it names exactly the multi-step
// operation that was in flight; recovery replays the remainder from
// the Flash state (which page copies completed is evident from the
// segments themselves). Between the two writes there is no crash
// point, so an intent is present if and only if the operation is
// unfinished.
type Intent struct {
	Kind IntentKind

	// Src is the segment being emptied (the clean victim, or the
	// relocation source of the current wear-swap phase); Dst is the
	// erased segment receiving its live cluster.
	Src, Dst int

	// Home is the victim's partition for an IntentClean under the
	// Hybrid policy; unused under Greedy.
	Home int

	// Wear-swap bookkeeping: phase 1 relocates Old into the spare,
	// phase 2 relocates Young into Old's place.
	Phase      int
	Old, Young int
}

// partition is the locality-gathering unit: an ordered FIFO of member
// segments (index 0 = oldest, last = active) plus a decayed write-rate
// estimate.
type partition struct {
	segs    []int
	rate    float64 // decayed count of flushes into this partition
	lastSeq int64   // flush sequence number rate was last decayed to
	cleans  int64

	// Decayed observed cleaning work: live pages copied and free pages
	// recovered by this partition's recent cleans. Their ratio is the
	// partition's actual per-flush cleaning cost, which gates shedding.
	costCopies    float64
	costRecovered float64
}

// Engine owns Flash space management. It is not safe for concurrent
// use.
type Engine struct {
	arr      *flash.Array
	cfg      Config
	remap    func(logical, oldPPN, newPPN uint32)
	counters *stats.Counters

	spare  int   // the always-erased segment (§3.4)
	partOf []int // physical segment -> partition index; -1 for the spare

	parts    []partition
	flushSeq int64 // total flushes, for lazy rate decay

	lastWearCleans int64   // SegmentCleans at the last wear swap (rate limiter)
	wearMark       []int64 // per-segment erase count when last wear-swapped
	swaps          int64   // lifetime wear swaps; unlike counters.WearSwaps, never reset

	// wearQuiet memoises levelWearOnce's last "no swap" verdict, valid
	// while wearKey() still equals wearQuietAt.
	wearQuiet   bool
	wearQuietAt wearKey

	// Greedy state.
	active int // segment accepting flushes

	// intent is the battery-backed record of the multi-step operation
	// in flight (IntentNone between operations).
	intent Intent

	// consolidate, when set (differential flush policy), lets the
	// controller substitute a merged base∪chain payload for a live page
	// being cleaned, with an after-callback that retires the page's now
	// redundant diff chain once the copy has landed. It is consulted
	// only for ordinary logical pages — shared diff units (owner
	// flash.DiffOwner) relocate like any live page, via remap.
	consolidate func(logical, oldPPN uint32) (payload []byte, after func(newPPN uint32), ok bool)

	// Scratch reused across operations, so that steady-state flushing
	// allocates nothing: the current operation's steps, ensureFronts'
	// banks holding an erased-free page, products' per-partition values
	// and movePages' picked live pages.
	work       []Step
	frontBanks []bool
	prods      []float64
	picks      []livePage
}

// livePage is a live page picked for relocation: its page index within
// the source segment and its owner.
type livePage struct {
	page    int
	logical uint32
}

// New returns an engine managing arr. remap is invoked whenever the
// engine relocates a live logical page from oldPPN to newPPN (the
// controller updates its page table, MMU, or shadow records there);
// counters receives operation counts.
func New(arr *flash.Array, cfg Config, remap func(logical, oldPPN, newPPN uint32), counters *stats.Counters) (*Engine, error) {
	geo := arr.Geometry()
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("cleaner: LogicalPages must be positive, got %d", cfg.LogicalPages)
	}
	if cfg.LogicalPages > (geo.Segments-1)*geo.PagesPerSegment {
		return nil, fmt.Errorf("cleaner: %d logical pages cannot fit in %d segments with one spare",
			cfg.LogicalPages, geo.Segments)
	}
	if cfg.MoveQuantum <= 0 {
		cfg.MoveQuantum = geo.PagesPerSegment / 16
		if cfg.MoveQuantum < 1 {
			cfg.MoveQuantum = 1
		}
	}
	if cfg.ProductSlack == 0 {
		cfg.ProductSlack = 0.4
	}
	if cfg.RateDecay == 0 {
		cfg.RateDecay = 0.99995
	}
	if cfg.MinShedUtilization == 0 {
		cfg.MinShedUtilization = 0.55
	}
	e := &Engine{
		arr:      arr,
		cfg:      cfg,
		remap:    remap,
		counters: counters,
		spare:    geo.Segments - 1,
		partOf:   make([]int, geo.Segments),
		wearMark: make([]int64, geo.Segments),

		frontBanks: make([]bool, geo.Banks),
	}
	switch cfg.Kind {
	case Greedy:
		e.active = 0
		for i := range e.partOf {
			e.partOf[i] = 0
		}
		e.partOf[e.spare] = -1
	case Hybrid:
		k := cfg.PartitionSegments
		if k <= 0 {
			return nil, fmt.Errorf("cleaner: hybrid policy needs PartitionSegments > 0, got %d", k)
		}
		if k > geo.Segments-1 {
			k = geo.Segments - 1
			cfg.PartitionSegments = k
			e.cfg.PartitionSegments = k
		}
		nParts := (geo.Segments - 1 + k - 1) / k
		e.parts = make([]partition, nParts)
		e.prods = make([]float64, nParts)
		seg := 0
		for p := range e.parts {
			for j := 0; j < k && seg < geo.Segments-1; j++ {
				e.parts[p].segs = append(e.parts[p].segs, seg)
				e.partOf[seg] = p
				seg++
			}
		}
		if cfg.BankStagger > 1 {
			// Rotate partition p's FIFO left by p modulo the stagger —
			// equivalent to p no-cost cleans — so the active segments
			// (list tails) start on distinct banks instead of all in
			// phase. Partitions rotate at similar rates under load, so
			// the spread largely persists.
			for p := range e.parts {
				segs := e.parts[p].segs
				if r := p % cfg.BankStagger; r > 0 && r < len(segs) {
					rotated := append(append([]int(nil), segs[r:]...), segs[:r]...)
					copy(segs, rotated)
				}
			}
		}
		e.partOf[e.spare] = -1
	default:
		return nil, fmt.Errorf("cleaner: unknown policy kind %d", int(cfg.Kind))
	}
	return e, nil
}

// Config returns the engine's configuration (with defaults resolved).
func (e *Engine) Config() Config { return e.cfg }

// SetConsolidate installs the differential policy's clean-time merge
// hook (nil disables it). See the Engine field for the contract.
func (e *Engine) SetConsolidate(fn func(logical, oldPPN uint32) (payload []byte, after func(newPPN uint32), ok bool)) {
	e.consolidate = fn
}

// Spare returns the currently reserved erased segment.
func (e *Engine) Spare() int { return e.spare }

// Partitions returns the number of locality-gathering partitions (1 for
// Greedy, which has no partitions).
func (e *Engine) Partitions() int {
	if e.cfg.Kind == Greedy {
		return 1
	}
	return len(e.parts)
}

// PartitionOf returns the partition a physical segment belongs to, or
// -1 for the spare segment.
func (e *Engine) PartitionOf(seg int) int { return e.partOf[seg] }

// WearMark returns a segment's erase count as of its last wear swap.
// A segment whose current count equals its mark has been retired to
// cold duty and rests there by design; one with a higher count is
// still accumulating wear and is subject to the leveling threshold.
// The invariant checker uses this to bound the live wear spread.
func (e *Engine) WearMark(seg int) int64 { return e.wearMark[seg] }

// Home returns the home tag to record when a logical page enters the
// SRAM write buffer: the partition that currently holds (or should
// hold) the page. ppnValid reports whether the page has a Flash copy at
// ppn; unmapped pages get their initial layout position.
func (e *Engine) Home(logical uint32, ppnValid bool, ppn uint32) int {
	if e.cfg.Kind == Greedy {
		return 0
	}
	if ppnValid {
		seg, _ := e.arr.Geometry().Split(ppn)
		if p := e.partOf[seg]; p >= 0 {
			return p
		}
		// The page sits in the segment that just became the spare —
		// possible only transiently; fall through to layout position.
	}
	return e.initialHome(logical)
}

// initialHome spreads the logical address space contiguously across
// partitions, mirroring a linear initial data layout.
func (e *Engine) initialHome(logical uint32) int {
	n := len(e.parts)
	h := int(int64(logical) * int64(n) / int64(e.cfg.LogicalPages))
	if h >= n {
		h = n - 1
	}
	return h
}

// Flush programs one page from the write buffer into Flash, cleaning
// first if the policy's target segment has no free space. It returns
// the physical page chosen and the cleaning work performed (not
// including the flush program itself, which the caller charges
// separately — the cleaning-cost metric excludes the initial flush,
// §4.1). The payload may be nil for dataless arrays.
func (e *Engine) Flush(logical uint32, home int, payload []byte) (ppn uint32, work []Step) {
	return e.flush(logical, home, payload, nil)
}

func (e *Engine) flush(logical uint32, home int, payload []byte, avoid func(bank int) bool) (ppn uint32, work []Step) {
	e.work = e.work[:0]
	// Wear leveling runs before placement: a swap relocates live pages
	// (remapping them via the callback), and doing it first keeps the
	// returned physical page authoritative for the page being flushed.
	e.maybeLevelWear()
	seg := e.flushTarget(home, avoid)
	// Each clean inside the target choice rotates the old spare into
	// service; if such a segment's historical wear puts it straight
	// over the spread bound, level again now, before this flush returns
	// and the bound becomes observable. One pass per clean (the hybrid
	// FIFO sweep can clean several segments, each funding one swap).
	// A swap transfers segment roles, so the target is recomputed
	// (free space exists, so the recompute cannot clean again).
	for e.maybeLevelWear() {
		seg = e.flushTarget(home, avoid)
	}
	page := e.nextFree(seg)
	ppn = e.arr.Geometry().PPN(seg, page)
	e.arr.Program(ppn, logical, payload)
	e.counters.Flushes++
	if e.cfg.Kind == Hybrid {
		e.noteFlush(e.partOf[seg])
	}
	return ppn, e.work
}

// flushTarget picks the segment a flush programs into. Without an
// avoid predicate this is the policy's normal choice. With one (the §6
// bank-parallel path), placement steers toward an acceptable bank:
// first the home partition's active segment, then other partitions'
// actives by distance, then any partition segment with a free suffix —
// nearest first, so the locality cost stays as small as the bank
// constraint allows. The always-erased spare segment sits outside
// every partition and is never a candidate; when every acceptable bank
// is out of space the policy's normal (cleaning) path takes over.
func (e *Engine) flushTarget(home int, avoid func(bank int) bool) int {
	if e.cfg.Kind == Greedy {
		return e.flushTargetGreedy()
	}
	if avoid != nil {
		e.ensureFronts(home, avoid)
		geo := e.arr.Geometry()
		if seg := e.PeekFlushSegment(home); seg >= 0 && !avoid(geo.BankOf(seg)) {
			return seg
		}
		for dist := 1; dist < len(e.parts); dist++ {
			for _, idx := range []int{home + dist, home - dist} {
				if idx < 0 || idx >= len(e.parts) {
					continue
				}
				if seg := e.PeekFlushSegment(idx); seg >= 0 && !avoid(geo.BankOf(seg)) {
					return seg
				}
			}
		}
		if seg := e.freeSegmentAvoiding(home, avoid); seg >= 0 {
			return seg
		}
		if seg := e.cleanAvoiding(home, avoid); seg >= 0 {
			return seg
		}
	}
	return e.flushTargetHybrid(home)
}

// cleanAvoiding opens a new flush front for the §6 bank-parallel path:
// one proactive FIFO clean whose destination (the spare) sits on an
// acceptable bank. All reclamation chains through the single spare
// segment, so under load erased space exists on essentially one bank
// at a time and concurrent flushes pile onto it; cleaning ahead of the
// forced schedule produces the partition's next destination while the
// current bank is still programming. The work is not wasted — it is
// the same victim the partition's next forced clean would pick, done
// early. Returns the destination segment, or -1 when the spare's bank
// is itself unacceptable or no partition near home has a victim worth
// cleaning.
func (e *Engine) cleanAvoiding(home int, avoid func(bank int) bool) int {
	if avoid(e.arr.Geometry().BankOf(e.spare)) {
		return -1
	}
	return e.forcedClean(home)
}

// forcedClean performs one FIFO clean ahead of the forced schedule,
// trying the home partition first and then outward by distance, and
// returns the destination segment (the old spare) or -1 when no nearby
// partition has a victim worth cleaning. The work matches what the
// partition's next forced clean would do — the same victim in the same
// FIFO order, just earlier — so the recovered space is never wasted.
func (e *Engine) forcedClean(home int) int {
	geo := e.arr.Geometry()
	try := func(idx int) int {
		p := &e.parts[idx]
		if len(p.segs) < 2 {
			return -1
		}
		victim := p.segs[0]
		_, live, _ := e.arr.SegmentCounts(victim)
		if live == geo.PagesPerSegment {
			return -1 // fully live: cleaning recovers nothing
		}
		dest := e.cleanSegment(victim)
		copy(p.segs, p.segs[1:])
		p.segs[len(p.segs)-1] = dest
		e.partOf[dest] = idx
		p.cleans++
		p.costCopies = 0.9*p.costCopies + float64(live)
		p.costRecovered = 0.9*p.costRecovered + float64(geo.PagesPerSegment-live)
		e.redistribute(idx, dest)
		// live < PagesPerSegment and redistribution only moves pages
		// out of dest, so space is guaranteed here.
		return dest
	}
	if seg := try(home); seg >= 0 {
		return seg
	}
	for dist := 1; dist < len(e.parts); dist++ {
		for _, idx := range []int{home + dist, home - dist} {
			if idx < 0 || idx >= len(e.parts) {
				continue
			}
			if seg := try(idx); seg >= 0 {
				return seg
			}
		}
	}
	return -1
}

// ensureFronts keeps §6 flush fronts alive: when fewer banks than the
// configured spread hold any erased-free page, one proactive clean
// opens a new front on the spare's bank. Without this the fronts die
// out one by one — reclamation chains through the single spare, so
// free space under load collapses toward one bank and concurrent
// flushes serialize behind it.
func (e *Engine) ensureFronts(home int, avoid func(bank int) bool) {
	want := e.cfg.BankStagger
	if want <= 1 {
		return
	}
	geo := e.arr.Geometry()
	spareBank := geo.BankOf(e.spare)
	if avoid(spareBank) {
		return // the front this clean would open is on a busy bank
	}
	seen := e.frontBanks
	clear(seen)
	fronts := 0
	for seg := 0; seg < geo.Segments; seg++ {
		if seg == e.spare {
			continue
		}
		if free, _, _ := e.arr.SegmentCounts(seg); free > 0 {
			if b := geo.BankOf(seg); !seen[b] {
				seen[b] = true
				fronts++
			}
		}
	}
	if fronts >= want || seen[spareBank] {
		return // enough fronts, or a clean would not add a new bank
	}
	e.forcedClean(home)
}

// freeSegmentAvoiding finds a segment with free pages on an acceptable
// bank, searching the home partition first and then outward by
// distance. Returns -1 when no acceptable bank has space.
func (e *Engine) freeSegmentAvoiding(home int, avoid func(bank int) bool) int {
	geo := e.arr.Geometry()
	check := func(idx int) int {
		for _, seg := range e.parts[idx].segs {
			if avoid(geo.BankOf(seg)) {
				continue
			}
			if e.freePages(seg) > 0 {
				return seg
			}
		}
		return -1
	}
	if seg := check(home); seg >= 0 {
		return seg
	}
	for dist := 1; dist < len(e.parts); dist++ {
		for _, idx := range []int{home + dist, home - dist} {
			if idx < 0 || idx >= len(e.parts) {
				continue
			}
			if seg := check(idx); seg >= 0 {
				return seg
			}
		}
	}
	return -1
}

// FlushAvoiding is Flush for the §6 bank-parallel path. When the home
// partition's predicted target sits on a bank the caller rejects (one
// already programming or erasing), the page is placed in the nearest
// partition whose active segment sits on an acceptable bank and has
// free space — trading a little locality for a concurrent program,
// which is the §6 deal: outstanding pages go to several banks at once.
// Falls back to plain Flush when no acceptable target exists (progress
// beats placement).
func (e *Engine) FlushAvoiding(logical uint32, home int, payload []byte, avoid func(bank int) bool) (ppn uint32, work []Step) {
	if e.cfg.Kind != Hybrid {
		avoid = nil
	}
	return e.flush(logical, home, payload, avoid)
}

// FlushUnit programs one shared diff-record unit page (differential
// flush policy) into Flash, with the same placement, cleaning and wear
// rules as Flush. The unit carries diff records for several logical
// pages, so it is owned by the flash.DiffOwner sentinel rather than by
// any one of them, and only its first used bytes are modelled as
// programmed. The caller accounts the member flushes; the unit program
// is not itself a Flushes event, though it does feed the hybrid
// policy's flush-rate estimate like any other program into a
// partition's active segment.
func (e *Engine) FlushUnit(home int, payload []byte, used int, avoid func(bank int) bool) (ppn uint32, work []Step) {
	if e.cfg.Kind != Hybrid {
		avoid = nil
	}
	e.work = e.work[:0]
	e.maybeLevelWear()
	seg := e.flushTarget(home, avoid)
	for e.maybeLevelWear() {
		seg = e.flushTarget(home, avoid)
	}
	page := e.nextFree(seg)
	ppn = e.arr.Geometry().PPN(seg, page)
	e.arr.ProgramUsed(ppn, flash.DiffOwner, payload, used)
	if e.cfg.Kind == Hybrid {
		e.noteFlush(e.partOf[seg])
	}
	return ppn, e.work
}

// nextFree returns the first free page index in a segment. Allocation
// is append-only (§3.4: flushed data fills the space after the live
// cluster), so free pages form a suffix.
func (e *Engine) nextFree(seg int) int {
	free, _, _ := e.arr.SegmentCounts(seg)
	if free == 0 {
		panic(fmt.Sprintf("cleaner: segment %d has no free pages after cleaning", seg))
	}
	return e.arr.Geometry().PagesPerSegment - free
}

func (e *Engine) freePages(seg int) int {
	free, _, _ := e.arr.SegmentCounts(seg)
	return free
}

// flushTargetGreedy returns the active segment, cleaning the
// most-invalidated segment when the active one fills (§4.2). While the
// array is still filling (initial load), completely empty segments are
// promoted to active instead of cleaning.
func (e *Engine) flushTargetGreedy() int {
	if e.freePages(e.active) > 0 {
		return e.active
	}
	if empty := e.emptySegment(); empty >= 0 {
		e.active = empty
		return e.active
	}
	victim := e.greedyVictim()
	dest := e.cleanSegment(victim)
	e.active = dest
	if e.freePages(dest) == 0 {
		// The victim was fully live; cleaning recovered nothing. With
		// the ≤80% utilization cap this cannot happen unless the
		// caller overfilled the array.
		panic("cleaner: greedy cleaning recovered no space (array overfull)")
	}
	return e.active
}

// emptySegment returns a non-spare segment with no data at all, or -1.
func (e *Engine) emptySegment() int {
	geo := e.arr.Geometry()
	for seg := 0; seg < geo.Segments; seg++ {
		if seg == e.spare {
			continue
		}
		free, _, _ := e.arr.SegmentCounts(seg)
		if free == geo.PagesPerSegment {
			return seg
		}
	}
	return -1
}

func (e *Engine) greedyVictim() int {
	best, bestInvalid := -1, -1
	for seg := 0; seg < e.arr.Geometry().Segments; seg++ {
		if seg == e.spare {
			continue
		}
		_, _, invalid := e.arr.SegmentCounts(seg)
		if invalid > bestInvalid {
			best, bestInvalid = seg, invalid
		}
	}
	return best
}

// flushTargetHybrid returns the home partition's active segment,
// cleaning the partition's oldest segment (FIFO, §4.4) when full.
// PeekFlushSegment predicts, without mutating anything, where a flush
// homed at the given partition would land: the policy's current active
// segment, or -1 if that segment is full and the flush would have to
// clean first (the post-clean target depends on the spare rotation, so
// it is not predictable for free). The §6 parallel flush path uses the
// prediction to spread concurrent programs across banks.
func (e *Engine) PeekFlushSegment(home int) int {
	var seg int
	if e.cfg.Kind == Greedy {
		seg = e.active
	} else {
		if home < 0 || home >= len(e.parts) {
			return -1
		}
		p := &e.parts[home]
		seg = p.segs[len(p.segs)-1]
	}
	if e.freePages(seg) == 0 {
		return -1
	}
	return seg
}

func (e *Engine) flushTargetHybrid(home int) int {
	if home < 0 || home >= len(e.parts) {
		panic(fmt.Sprintf("cleaner: flush with home partition %d out of range [0,%d)", home, len(e.parts)))
	}
	p := &e.parts[home]
	active := p.segs[len(p.segs)-1]
	if e.freePages(active) > 0 {
		return active
	}
	// While the partition is still filling (initial load), promote a
	// completely empty member to active rather than cleaning.
	geo := e.arr.Geometry()
	for i, seg := range p.segs[:len(p.segs)-1] {
		free, _, _ := e.arr.SegmentCounts(seg)
		if free == geo.PagesPerSegment {
			copy(p.segs[i:], p.segs[i+1:])
			p.segs[len(p.segs)-1] = seg
			return seg
		}
	}
	if seg := e.cleanPassHybrid(home); seg >= 0 {
		return seg
	}
	// The whole partition is live: shed the incoming page itself to
	// the nearest partition with room (redistribution drains the
	// overfull partition across its next cleans).
	if seg := e.nearestWithSpace(home); seg >= 0 {
		return seg
	}
	// Transactions can push live data past the utilization target: a
	// shadowed page keeps two Valid Flash copies at once (§6). If that
	// coincides with every partition's active segment being full, space
	// still exists wherever pages have been invalidated — clean the
	// nearest partition holding any, however expensive the copy ratio.
	for dist := 1; dist < len(e.parts); dist++ {
		for _, idx := range []int{home + dist, home - dist} {
			if idx < 0 || idx >= len(e.parts) {
				continue
			}
			if seg := e.cleanPassHybrid(idx); seg >= 0 {
				return seg
			}
		}
	}
	panic("cleaner: no free space anywhere (array overfull)")
}

// cleanPassHybrid cleans partition home's segments in FIFO order until
// its active segment has free space, making at most one pass. Returns
// the segment to flush into, or -1 if every member is fully live.
func (e *Engine) cleanPassHybrid(home int) int {
	p := &e.parts[home]
	geo := e.arr.Geometry()
	for range p.segs {
		victim := p.segs[0]
		if _, live, _ := e.arr.SegmentCounts(victim); live == geo.PagesPerSegment {
			// A fully live victim recovers no space; cleaning it would
			// copy a whole segment for nothing. Rotate it to the tail
			// and try the next-oldest instead.
			copy(p.segs, p.segs[1:])
			p.segs[len(p.segs)-1] = victim
			continue
		}
		_, liveBefore, _ := e.arr.SegmentCounts(victim)
		dest := e.cleanSegment(victim)
		// The destination joins the partition as the newest segment;
		// the erased victim became the spare and leaves the partition.
		copy(p.segs, p.segs[1:])
		p.segs[len(p.segs)-1] = dest
		e.partOf[dest] = home
		p.cleans++
		p.costCopies = 0.9*p.costCopies + float64(liveBefore)
		p.costRecovered = 0.9*p.costRecovered + float64(geo.PagesPerSegment-liveBefore)
		e.redistribute(home, dest)
		if active := p.segs[len(p.segs)-1]; e.freePages(active) > 0 {
			return active
		}
	}
	return -1
}

// nearestWithSpace finds the partition closest to home whose active
// segment can accept a flush (promoting a completely empty member to
// active if needed), and returns that segment, or -1 if the whole
// array is out of free pages.
func (e *Engine) nearestWithSpace(home int) int {
	geo := e.arr.Geometry()
	for dist := 1; dist < len(e.parts); dist++ {
		for _, idx := range []int{home + dist, home - dist} {
			if idx < 0 || idx >= len(e.parts) {
				continue
			}
			p := &e.parts[idx]
			if active := p.segs[len(p.segs)-1]; e.freePages(active) > 0 {
				return active
			}
			for i, seg := range p.segs[:len(p.segs)-1] {
				free, _, _ := e.arr.SegmentCounts(seg)
				if free == geo.PagesPerSegment {
					copy(p.segs[i:], p.segs[i+1:])
					p.segs[len(p.segs)-1] = seg
					return seg
				}
			}
		}
	}
	return -1
}

// cleanSegment copies victim's live pages (in physical order, which
// locality gathering relies on — §4.3) into the spare segment, erases
// the victim, and makes it the new spare. Returns the destination
// segment now holding the live cluster.
func (e *Engine) cleanSegment(victim int) (dest int) {
	dest = e.spare
	geo := e.arr.Geometry()
	if e.freePages(dest) != geo.PagesPerSegment {
		panic(fmt.Sprintf("cleaner: spare segment %d is not erased", dest))
	}
	e.intent = Intent{Kind: IntentClean, Src: victim, Dst: dest, Home: e.partOf[victim]}
	moved := 0
	e.arr.LivePages(victim, func(page int, logical uint32) {
		oldPPN := geo.PPN(victim, page)
		newPPN := geo.PPN(dest, moved)
		var after func(newPPN uint32)
		merged := false
		if e.consolidate != nil && logical != flash.DiffOwner {
			// Differential policy: a chained base is copied as its
			// merged base∪chain image, and the chain (now redundant) is
			// retired once the copy has landed — cleaning consolidates
			// chains instead of relocating them (the after callback may
			// invalidate dead unit pages, including ones later in this
			// victim; LivePages skips pages that die mid-iteration).
			if m, fn, ok := e.consolidate(logical, oldPPN); ok {
				// The merged image is a fresh buffer; program it as-is.
				e.arr.Program(newPPN, logical, m)
				after, merged = fn, true
			}
		}
		if !merged {
			e.arr.CopyPage(newPPN, oldPPN, logical)
		}
		e.arr.Invalidate(oldPPN)
		e.remap(logical, oldPPN, newPPN)
		if after != nil {
			after(newPPN)
		}
		moved++
	})
	if moved > 0 {
		e.counters.CleanCopies += int64(moved)
		e.work = append(e.work, Step{Kind: StepCopy, Seg: dest, Pages: moved})
	}
	e.arr.Erase(victim)
	e.counters.SegmentCleans++
	e.counters.Erases++
	e.work = append(e.work, Step{Kind: StepErase, Seg: victim})
	e.spare = victim
	e.partOf[victim] = -1
	e.intent = Intent{}
	return dest
}
