package cleaner

import (
	"fmt"
	"math"
)

// decayTo brings a partition's decayed flush-rate estimate up to the
// given flush sequence number.
func (e *Engine) decayTo(p *partition, seq int64) {
	if p.lastSeq == seq {
		return
	}
	p.rate *= math.Pow(e.cfg.RateDecay, float64(seq-p.lastSeq))
	p.lastSeq = seq
}

// noteFlush records one flush into partition idx for the rate
// estimates driving the locality-gathering heuristic.
func (e *Engine) noteFlush(idx int) {
	e.flushSeq++
	p := &e.parts[idx]
	e.decayTo(p, e.flushSeq)
	p.rate++
}

// cleaningCost is the §4.1 cost u/(1-u) for a partition utilization,
// saturated so fully-live partitions compare as "very expensive" rather
// than dividing by zero.
func cleaningCost(u float64) float64 {
	if u >= 0.999 {
		return 1000
	}
	return u / (1 - u)
}

// utilization returns the live fraction of a partition's capacity.
func (e *Engine) utilization(idx int) float64 {
	p := &e.parts[idx]
	live := 0
	for _, seg := range p.segs {
		_, l, _ := e.arr.SegmentCounts(seg)
		live += l
	}
	return float64(live) / float64(len(p.segs)*e.arr.Geometry().PagesPerSegment)
}

// products computes the locality-gathering heuristic value for every
// partition: (cleaning frequency) × (per-clean cleaning cost), which
// §4.3 aims to equalize. A partition is cleaned once per
// (1−u)·capacity flushes into it and each clean copies u·capacity live
// pages, so the product reduces to rate · u/(1−u). Its fixed point is
// exactly the paper's intuition: a partition written ten times more
// often settles at one tenth the per-flush cleaning cost.
func (e *Engine) products() (prods []float64, avg float64) {
	prods = e.prods
	var sum float64
	for i := range e.parts {
		e.decayTo(&e.parts[i], e.flushSeq)
		prods[i] = e.parts[i].rate * cleaningCost(e.utilization(i))
		sum += prods[i]
	}
	return prods, sum / float64(len(prods))
}

// redistribute runs after a clean in partition home whose live cluster
// now sits in dest. If home's frequency×cost product exceeds the
// average, it sheds pages to its neighbors: cold pages (the head of the
// live cluster, §4.3 — data near the beginning "sinks" and is cold) go
// to the higher-numbered neighbor, hot pages (the tail) to the
// lower-numbered one, gathering hot data near partition 0.
func (e *Engine) redistribute(home, dest int) {
	if len(e.parts) < 2 || e.cfg.NoRedistribute {
		return
	}
	// Until a partition has been cleaned once per member segment, its
	// live clusters still reflect the initial load order rather than
	// write recency, so the head-is-cold / tail-is-hot rule (§4.3)
	// does not hold yet and shedding would export hot pages.
	if e.parts[home].cleans < 3*int64(len(e.parts[home].segs)) {
		return
	}
	prods, avg := e.products()
	if prods[home] <= avg*(1+e.cfg.ProductSlack) {
		return
	}
	if e.utilization(home) <= e.cfg.MinShedUtilization {
		return
	}
	// Shedding lowers a partition's future cleaning cost. If its
	// observed cost is already below one program per flush, the cleans
	// are near-free and giving away more pages cannot help — it can
	// only export pages of the hot working set, whose write traffic
	// would follow them into colder partitions.
	if p := &e.parts[home]; p.costRecovered > 0 && p.costCopies/p.costRecovered < 1 {
		return
	}
	budget := e.cfg.MoveQuantum
	type cand struct {
		idx      int
		fromTail bool // §4.3: pages headed for a lower-numbered segment come from the end
	}
	// In each direction, pages go to the *frontier*: the nearest
	// partition able to absorb them. Interior partitions of a hot
	// region hop directly over equally loaded peers (no hop-by-hop
	// ladder to stall on), while a hot region that outgrows one
	// partition expands contiguously into the partition next door
	// rather than spraying its excess across the whole array.
	cands := make([]cand, 0, 2)
	if up := e.frontier(prods, home, +1); up >= 0 {
		cands = append(cands, cand{up, false})
	}
	if down := e.frontier(prods, home, -1); down >= 0 {
		cands = append(cands, cand{down, true})
	}
	if len(cands) == 2 && prods[cands[1].idx] < prods[cands[0].idx] {
		cands[0], cands[1] = cands[1], cands[0]
	}
	for _, c := range cands {
		if budget == 0 {
			break
		}
		moved := e.movePages(dest, c.idx, budget, c.fromTail)
		budget -= moved
	}
}

// frontier scans outward from home in the given direction and returns
// the nearest partition that can absorb shed pages: its
// frequency×cost product must sit well below the shedding partition's
// and it must not be saturated. Returns -1 if no partition qualifies.
//
// The margin is a genuine-gradient test, not a tie-breaker: partitions
// of a uniformly hot region differ only by estimation noise, and a
// narrow margin would make the cleaner chase that noise, trading pages
// between equally hot peers. Requiring the receiver to sit well below
// the shedder means pages travel only when they leave the hot region —
// and because the scan is nearest-first, they stop at its edge, so a
// hot region grows contiguously instead of spraying its excess across
// the array.
func (e *Engine) frontier(prods []float64, home, dir int) int {
	for i := home + dir; i >= 0 && i < len(e.parts); i += dir {
		if prods[i] < frontierMargin*prods[home] && e.utilization(i) <= 0.97 {
			return i
		}
	}
	return -1
}

// frontierMargin is the product ratio a receiver must sit below for a
// shedding partition to send it pages.
const frontierMargin = 0.7

// movePages relocates up to n live pages from the src segment into the
// active segment of partition dstPart, taking them from the tail
// (hottest) or head (coldest) of src's live cluster. Returns how many
// pages actually moved (bounded by the target's free space).
func (e *Engine) movePages(src, dstPart, n int, fromTail bool) int {
	p := &e.parts[dstPart]
	active := p.segs[len(p.segs)-1]
	if active == src {
		return 0
	}
	if free := e.freePages(active); n > free {
		n = free
	}
	_, srcLive, _ := e.arr.SegmentCounts(src)
	// Never empty the source completely; the cleaned segment should
	// keep its identity as the partition's live cluster.
	if n > srcLive-1 {
		n = srcLive - 1
	}
	if n <= 0 {
		return 0
	}
	geo := e.arr.Geometry()
	// Take the first n live pages, or from the tail all of them and keep
	// the last n.
	picks := e.picks[:0]
	e.arr.LivePages(src, func(page int, logical uint32) {
		if fromTail || len(picks) < n {
			picks = append(picks, livePage{page, logical})
		}
	})
	e.picks = picks
	if fromTail {
		picks = picks[len(picks)-n:]
	}
	for _, pk := range picks {
		oldPPN := geo.PPN(src, pk.page)
		newPPN := geo.PPN(active, e.nextFree(active))
		e.arr.CopyPage(newPPN, oldPPN, pk.logical)
		e.arr.Invalidate(oldPPN)
		e.remap(pk.logical, oldPPN, newPPN)
	}
	e.counters.CleanCopies += int64(len(picks))
	e.work = append(e.work, Step{Kind: StepCopy, Seg: active, Pages: len(picks)})
	return len(picks)
}

// maybeLevelWear enforces §4.3's wear rule: when the most-cycled
// segment is more than WearThreshold erases older than the
// least-cycled, swap their contents. The swap is realized as a rotate
// through the spare segment: young's data moves to the spare, old's
// data moves to young's place, and the old segment becomes the spare.
func (e *Engine) maybeLevelWear() bool {
	if e.cfg.WearThreshold <= 0 {
		return false
	}
	// At most one swap per regular (clean-driven) erase: each swap
	// consumes one clean-funded credit (lastWearCleans trails
	// SegmentCleans by the unspent credits). The swap itself erases two
	// segments, but those erases do not count as cleans and so fund no
	// further swaps — without that distinction the leveler would feed
	// on its own wear, rotating data endlessly. Credits matter when one
	// flush cleans several segments (the hybrid FIFO pass): each clean
	// can rotate a worn segment into service, and each needs its own
	// swap to restore the spread bound before the flush returns.
	if e.counters.SegmentCleans == e.lastWearCleans {
		return false
	}
	return e.levelWearOnce()
}

// wearKey is everything wearDue's verdict depends on besides the fixed
// threshold: per-segment erase counts change only with an erase (the
// array's lifetime total — not stats.Counters.Erases, which ResetStats
// zeroes and recovery's re-erases bypass), wear marks only with a swap,
// and the spare with either or with intent recovery. All three only
// ever grow or change together with one that does, so equal keys mean
// an unchanged verdict.
type wearKey struct {
	erases, swaps int64
	spare         int
}

func (e *Engine) wearKey() wearKey {
	return wearKey{erases: e.arr.TotalErases(), swaps: e.swaps, spare: e.spare}
}

// wearDue scans for the wear-swap candidates and reports whether the
// spread between them calls for a swap.
func (e *Engine) wearDue() (oldSeg, youngSeg int, due bool) {
	geo := e.arr.Geometry()
	// The "old" candidate is the most-cycled segment that has seen
	// regular wear since it was last swapped: a segment retired to
	// cold duty keeps its historical count, and re-swapping it would
	// only add wear (the swap itself erases it) without helping.
	oldSeg, youngSeg = -1, -1
	var oldN, youngN int64
	for seg := 0; seg < geo.Segments; seg++ {
		if seg == e.spare {
			continue
		}
		n := e.arr.EraseCount(seg)
		if n > e.wearMark[seg] && (oldSeg == -1 || n > oldN) {
			oldSeg, oldN = seg, n
		}
		if youngSeg == -1 || n < youngN {
			youngSeg, youngN = seg, n
		}
	}
	due = oldSeg != -1 && oldSeg != youngSeg && oldN-youngN > e.cfg.WearThreshold
	return oldSeg, youngSeg, due
}

// levelWearOnce performs one wear swap if the spread condition calls
// for it, reporting whether it swapped. Callers own the pacing:
// maybeLevelWear rations it to one swap per clean, LevelWearAtMount
// loops it until the spread bound holds. An unspent clean credit
// brings every flush here; the segment scan is skipped while nothing
// its last "no swap" verdict depended on has changed (wearKey).
func (e *Engine) levelWearOnce() bool {
	key := e.wearKey()
	if e.wearQuiet && key == e.wearQuietAt {
		return false
	}
	oldSeg, youngSeg, due := e.wearDue()
	if !due {
		e.wearQuiet, e.wearQuietAt = true, key
		return false
	}
	spare := e.spare
	e.intent = Intent{Kind: IntentWearSwap, Phase: 1, Old: oldSeg, Young: youngSeg, Src: oldSeg, Dst: spare}
	// Old's (hot, heavily cycled) data and role -> the spare segment.
	e.relocate(oldSeg, spare)
	e.intent.Phase = 2
	e.intent.Src = youngSeg
	e.intent.Dst = oldSeg
	// Young's (cold, rarely cycled) data and role -> the old segment,
	// which from now on holds cold data and rests.
	e.relocate(youngSeg, oldSeg)
	// The young, barely cycled segment becomes the spare. This
	// direction matters: the spare is consumed by the next clean, and
	// the hottest partitions clean most often — handing them a fresh
	// segment, not the one that was just retired for wear.
	e.spare = youngSeg
	e.partOf[youngSeg] = -1
	e.counters.WearSwaps++
	e.swaps++
	e.lastWearCleans++ // consume one clean-funded credit
	e.wearMark[oldSeg] = e.arr.EraseCount(oldSeg)
	e.intent = Intent{}
	return true
}

// LevelWearAtMount re-establishes the wear-spread bound after crash
// recovery. The bound's headroom assumes one leveling opportunity per
// completed clean; crash/recover cycles break that pacing (recovery's
// re-erases add wear, and a run of interrupted cleans can skip several
// opportunities), so the mount path swaps until the spread is back
// within the threshold. It returns the number of swaps performed and
// the Flash work done, so the mount path can replay it on the
// simulated clock. Termination: every swap retires its over-worn
// segment at a fresh wear mark, and the iteration cap backstops
// pathological re-engagement.
//
// Call only with the array free of orphans and torn pages (after the
// recovery sweeps): relocation remaps every live page it moves, which
// must be unambiguous. Fault injection must be disarmed.
func (e *Engine) LevelWearAtMount() (int, []Step) {
	if e.cfg.WearThreshold <= 0 {
		return 0, nil
	}
	e.work = e.work[:0]
	swaps := 0
	for i := 0; i < 2*e.arr.Geometry().Segments; i++ {
		if !e.levelWearOnce() {
			break
		}
		swaps++
	}
	// Mount swaps are not clean-funded; reset the credit ledger so the
	// swaps above neither borrow from nor owe to normal-operation pacing.
	e.lastWearCleans = e.counters.SegmentCleans
	return swaps, e.work
}

// relocate copies every live page of src into the erased segment dst,
// erases src, and transfers src's policy role (partition membership and
// FIFO position, or greedy active status) to dst.
func (e *Engine) relocate(src, dst int) {
	geo := e.arr.Geometry()
	if e.freePages(dst) != geo.PagesPerSegment {
		panic(fmt.Sprintf("cleaner: relocate target segment %d is not erased", dst))
	}
	moved := 0
	e.arr.LivePages(src, func(page int, logical uint32) {
		oldPPN := geo.PPN(src, page)
		newPPN := geo.PPN(dst, moved)
		e.arr.CopyPage(newPPN, oldPPN, logical)
		e.arr.Invalidate(oldPPN)
		e.remap(logical, oldPPN, newPPN)
		moved++
	})
	if moved > 0 {
		e.counters.CleanCopies += int64(moved)
		e.work = append(e.work, Step{Kind: StepCopy, Seg: dst, Pages: moved, Wear: true})
	}
	e.arr.Erase(src)
	e.counters.Erases++
	e.work = append(e.work, Step{Kind: StepErase, Seg: src, Wear: true})

	// Transfer the policy role.
	part := e.partOf[src]
	e.partOf[dst] = part
	e.partOf[src] = -1
	if e.cfg.Kind == Greedy {
		if e.active == src {
			e.active = dst
		}
		return
	}
	if part >= 0 {
		segs := e.parts[part].segs
		for i, s := range segs {
			if s == src {
				segs[i] = dst
				return
			}
		}
		panic(fmt.Sprintf("cleaner: segment %d not found in partition %d", src, part))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// minProduct returns the index of the smallest product in prods[lo:hi),
// or -1 if the range is empty.
func minProduct(prods []float64, lo, hi int) int {
	best := -1
	for i := lo; i < hi && i < len(prods); i++ {
		if i < 0 {
			continue
		}
		if best == -1 || prods[i] < prods[best] {
			best = i
		}
	}
	return best
}
