package cleaner

import "fmt"

// Intent recovery: finishing a crash-interrupted segment clean or wear
// swap from the battery-backed intent record. The Flash state itself
// says how far the operation got — copies that completed are Valid in
// the destination and Invalid in the source, the copy in flight is a
// Torn page, and an interrupted erase left the source half-erased — so
// recovery just runs the remainder of the same algorithm. The caller
// (internal/recovery) must disarm fault injection first: recovery
// itself is not crash-injectable.

// Intent returns the battery-backed record of the cleaner operation in
// flight (Kind IntentNone between operations). After a clean shutdown
// or a completed recovery it is always IntentNone — the invariant
// checker asserts exactly that.
func (e *Engine) Intent() Intent { return e.intent }

// RecoverIntent finishes the interrupted multi-step operation the
// intent records, re-establishing the spare-segment invariant (§3.4),
// and clears the intent. It returns the kind of operation recovered —
// IntentNone means the crash did not interrupt the cleaner — plus the
// Flash work performed, so the mount path can replay it on the
// simulated clock. Torn pages left in the destination segments (the
// copies in flight) stay Torn; the controller quarantines them
// afterwards.
func (e *Engine) RecoverIntent() (IntentKind, []Step, error) {
	in := e.intent
	e.work = e.work[:0]
	switch in.Kind {
	case IntentNone:
		return IntentNone, nil, nil
	case IntentClean:
		if err := e.finishCopyOut(in.Src, in.Dst, false); err != nil {
			return in.Kind, e.work, err
		}
		e.finishErase(in.Src, false)
		e.counters.SegmentCleans++
		e.spare = in.Src
		e.partOf[in.Src] = -1
		// The role transfer the interrupted flushTarget* caller never
		// reached: the destination takes the victim's place.
		if e.cfg.Kind == Greedy {
			e.active = in.Dst
		} else {
			p := &e.parts[in.Home]
			if len(p.segs) == 0 || p.segs[0] != in.Src {
				return in.Kind, e.work, fmt.Errorf("cleaner: clean intent victim %d is not partition %d's oldest segment", in.Src, in.Home)
			}
			copy(p.segs, p.segs[1:])
			p.segs[len(p.segs)-1] = in.Dst
			e.partOf[in.Dst] = in.Home
			p.cleans++
		}
	case IntentWearSwap:
		// Finish the relocation phase that was in flight; if that was
		// phase 1 (old -> spare), phase 2 (young -> old's now-erased
		// place) never started and runs in full.
		if err := e.finishRelocate(in.Src, in.Dst); err != nil {
			return in.Kind, e.work, err
		}
		if in.Phase == 1 {
			e.relocate(in.Young, in.Old)
		}
		e.spare = in.Young
		e.partOf[in.Young] = -1
		e.counters.WearSwaps++
		e.swaps++
		e.lastWearCleans = e.counters.SegmentCleans
		e.wearMark[in.Old] = e.arr.EraseCount(in.Old)
	default:
		return in.Kind, e.work, fmt.Errorf("cleaner: unknown intent kind %v", in.Kind)
	}
	e.intent = Intent{}
	return in.Kind, e.work, nil
}

// finishCopyOut copies the live pages still in src (those whose copy
// had not completed when the power failed) into dst, continuing the
// interrupted append. A torn page in dst (the copy that was in flight)
// occupies one slot, so a fully live source can overflow the
// destination by one page; the overflow goes to any other segment with
// room. An interrupted *erase* leaves src with no live pages at all
// (they were copied out before the erase began), so there is nothing
// to do here. wear tags the recorded steps as wear-swap work.
func (e *Engine) finishCopyOut(src, dst int, wear bool) error {
	geo := e.arr.Geometry()
	type pick struct {
		page    int
		logical uint32
	}
	var pending []pick
	e.arr.LivePages(src, func(page int, logical uint32) {
		pending = append(pending, pick{page, logical})
	})
	for _, pk := range pending {
		target := dst
		if e.freePages(target) == 0 {
			target = e.overflowTarget(src)
			if target < 0 {
				return fmt.Errorf("cleaner: no free page anywhere to finish copying segment %d out", src)
			}
		}
		oldPPN := geo.PPN(src, pk.page)
		newPPN := geo.PPN(target, e.nextFree(target))
		e.arr.CopyPage(newPPN, oldPPN, pk.logical)
		e.arr.Invalidate(oldPPN)
		e.remap(pk.logical, oldPPN, newPPN)
		e.counters.CleanCopies++
		e.noteStep(Step{Kind: StepCopy, Seg: target, Pages: 1, Wear: wear})
	}
	return nil
}

// noteStep appends one step to the work record, coalescing consecutive
// copies into the same segment.
func (e *Engine) noteStep(st Step) {
	if n := len(e.work); n > 0 && st.Kind == StepCopy {
		if last := &e.work[n-1]; last.Kind == StepCopy && last.Seg == st.Seg && last.Wear == st.Wear {
			last.Pages += st.Pages
			return
		}
	}
	e.work = append(e.work, st)
}

// overflowTarget returns a segment with free space other than src (src
// is about to be erased), or -1. The eventual spare is src itself, so
// parking a page in any other segment is safe.
func (e *Engine) overflowTarget(src int) int {
	for seg := 0; seg < e.arr.Geometry().Segments; seg++ {
		if seg != src && e.freePages(seg) > 0 {
			return seg
		}
	}
	return -1
}

// finishErase erases src unless a completed erase already left it
// fully free. A half-erased segment (the erase itself was the crash
// point) is simply erased again — re-erasing is how the hardware
// recovers an interrupted erase.
func (e *Engine) finishErase(src int, wear bool) {
	if e.freePages(src) == e.arr.Geometry().PagesPerSegment && !e.arr.HalfErased(src) {
		return
	}
	e.arr.Erase(src)
	e.counters.Erases++
	e.noteStep(Step{Kind: StepErase, Seg: src, Wear: wear})
}

// finishRelocate completes an interrupted relocate(src, dst): the
// remaining copies, the erase of src, and the policy role transfer.
func (e *Engine) finishRelocate(src, dst int) error {
	if err := e.finishCopyOut(src, dst, true); err != nil {
		return err
	}
	e.finishErase(src, true)
	part := e.partOf[src]
	e.partOf[dst] = part
	e.partOf[src] = -1
	if e.cfg.Kind == Greedy {
		if e.active == src {
			e.active = dst
		}
		return nil
	}
	if part >= 0 {
		segs := e.parts[part].segs
		for i, s := range segs {
			if s == src {
				segs[i] = dst
				return nil
			}
		}
		return fmt.Errorf("cleaner: segment %d not found in partition %d", src, part)
	}
	return nil
}
