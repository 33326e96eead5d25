// Package sram models eNVy's battery-backed SRAM write buffer (§3.2).
//
// The buffer is a FIFO of page frames: copy-on-write inserts pages at
// the head, the controller flushes from the tail, and writes to a page
// already buffered update its frame in place with no additional
// copy-on-write (the coalescing that keeps TPC-A's flush rate near one
// page per transaction). The paper chose plain FIFO over smarter
// replacement because the buffer is managed in hardware (§3.2); this
// model preserves that: nothing reorders the queue.
//
// Because the SRAM copy is the only valid copy of a buffered page, the
// real hardware battery-backs this memory; here that simply means the
// buffer is part of the device's persistent state.
package sram

import "fmt"

// noFrame is the list terminator for the intrusive links.
const noFrame = -1

// Frame is one buffered page. The controller owns the exported fields;
// the links, the FIFO stamp and the flushing state belong to the
// buffer, which keeps its flush-candidate index consistent with them.
// Field order packs the struct: the 32-bit fields fill what would be
// padding, so the index costs no bytes per frame.
type Frame struct {
	Logical uint32 // logical page number held in this frame
	idx     int32
	Home    int    // partition the page was copied from (§4.3); fixed while buffered
	Data    []byte // page payload; nil when the buffer is dataless

	// dirtyLo/dirtyHi bound the bytes written since the frame's dirty
	// range was last cleared, as a half-open [lo, hi) span. The
	// differential flush policy programs only this span (as a diff
	// record against the kept Flash base) instead of the whole page.
	// An empty span (lo == hi) means no tracked writes.
	dirtyLo, dirtyHi int

	// stamp is the frame's FIFO position: a buffer-wide counter value
	// taken each time the frame is linked at the head, so an older frame
	// always carries a smaller stamp.
	stamp uint64

	prev, next   int32 // FIFO links: prev is newer, next is older
	hprev, hnext int32 // home-list links: hprev is older, hnext is newer

	// Dirtied marks a flushing frame that was re-written by the host
	// while its program was in flight; the freshly programmed Flash
	// copy must be invalidated on completion and the frame re-queued.
	Dirtied bool

	// flushing marks a frame whose program to Flash is in progress (see
	// Flushing); only BeginFlush, AbortFlush, Requeue and Insert change
	// it, because it decides membership in the home lists.
	flushing bool
}

// Flushing reports whether the frame's program to Flash is in
// progress. Flushing frames are not flush candidates, so the
// controller does not start a second flush of the same page.
func (f *Frame) Flushing() bool { return f.flushing }

// MarkDirty extends the frame's dirty span to cover [lo, hi).
func (f *Frame) MarkDirty(lo, hi int) {
	if lo >= hi {
		return
	}
	if f.dirtyLo == f.dirtyHi { // empty span
		f.dirtyLo, f.dirtyHi = lo, hi
		return
	}
	if lo < f.dirtyLo {
		f.dirtyLo = lo
	}
	if hi > f.dirtyHi {
		f.dirtyHi = hi
	}
}

// DirtySpan returns the tracked dirty span as a half-open [lo, hi)
// byte range; lo == hi means no writes have been tracked.
func (f *Frame) DirtySpan() (lo, hi int) { return f.dirtyLo, f.dirtyHi }

// ClearDirty empties the tracked dirty span (after the span has been
// captured into a programmed diff record).
func (f *Frame) ClearDirty() { f.dirtyLo, f.dirtyHi = 0, 0 }

// homeList is one home partition's flush candidates: its occupied,
// non-flushing frames, oldest at the head.
type homeList struct{ head, tail int32 }

// Buffer is the FIFO write buffer. It is not safe for concurrent use.
//
// Besides the FIFO it keeps the flush-candidate index: per home
// partition, an intrusive list of that home's flushable (occupied, not
// flushing) frames in FIFO order. The index is what lets the controller
// find "the oldest flushable frame of an acceptable home" by looking at
// one list head per home instead of walking the FIFO. Like the FIFO
// links it is battery-backed state, lives in the frames array, and
// allocates nothing once every home has been seen.
type Buffer struct {
	frames   []Frame
	index    map[uint32]int32 // logical page -> frame index
	freeList []int32
	homes    []homeList // indexed by Frame.Home; grown by Insert
	clock    uint64     // last FIFO stamp handed out
	head     int32      // most recently inserted
	tail     int32      // least recently inserted
	pageSize int
	dataless bool
}

// NewBuffer returns an empty buffer with the given number of page
// frames. If dataless is true, frames carry no payload storage.
func NewBuffer(frames, pageSize int, dataless bool) *Buffer {
	if frames <= 0 {
		panic(fmt.Sprintf("sram: buffer needs at least 1 frame, got %d", frames))
	}
	if pageSize <= 0 {
		panic(fmt.Sprintf("sram: page size must be positive, got %d", pageSize))
	}
	b := &Buffer{
		frames:   make([]Frame, frames),
		index:    make(map[uint32]int32, frames),
		freeList: make([]int32, 0, frames),
		head:     noFrame,
		tail:     noFrame,
		pageSize: pageSize,
		dataless: dataless,
	}
	for i := frames - 1; i >= 0; i-- {
		b.frames[i].idx = int32(i)
		b.freeList = append(b.freeList, int32(i))
	}
	return b
}

// Cap returns the total number of frames.
func (b *Buffer) Cap() int { return len(b.frames) }

// Len returns the number of occupied frames.
func (b *Buffer) Len() int { return len(b.index) }

// Full reports whether every frame is occupied.
func (b *Buffer) Full() bool { return len(b.index) == len(b.frames) }

// PageSize returns the payload size of each frame.
func (b *Buffer) PageSize() int { return b.pageSize }

// Lookup returns the frame holding a logical page, or nil.
func (b *Buffer) Lookup(logical uint32) *Frame {
	i, ok := b.index[logical]
	if !ok {
		return nil
	}
	return &b.frames[i]
}

// Insert places a logical page into a free frame at the head of the
// FIFO and returns the frame. The payload, if any, is copied in. It
// panics if the buffer is full, the page is already buffered, or the
// home is negative — all indicate controller bugs.
func (b *Buffer) Insert(logical uint32, home int, payload []byte) *Frame {
	if _, dup := b.index[logical]; dup {
		panic(fmt.Sprintf("sram: logical page %d already buffered", logical))
	}
	if len(b.freeList) == 0 {
		panic("sram: inserting into a full buffer")
	}
	if home < 0 {
		panic(fmt.Sprintf("sram: inserting page %d with negative home %d", logical, home))
	}
	for home >= len(b.homes) {
		b.homes = append(b.homes, homeList{head: noFrame, tail: noFrame})
	}
	i := b.freeList[len(b.freeList)-1]
	b.freeList = b.freeList[:len(b.freeList)-1]
	f := &b.frames[i]
	f.Logical = logical
	f.Home = home
	f.flushing = false
	f.Dirtied = false
	f.dirtyLo, f.dirtyHi = 0, 0
	if !b.dataless {
		if f.Data == nil {
			f.Data = make([]byte, b.pageSize)
		}
		n := copy(f.Data, payload)
		for j := n; j < len(f.Data); j++ {
			f.Data[j] = 0
		}
	}
	b.linkHead(i)
	b.homeAppend(i)
	b.index[logical] = i
	return f
}

// Remove frees a frame, unlinking it from the FIFO.
func (b *Buffer) Remove(f *Frame) {
	i := f.idx
	if got, ok := b.index[f.Logical]; !ok || got != i {
		panic(fmt.Sprintf("sram: removing frame for page %d that is not buffered", f.Logical))
	}
	if !f.flushing {
		b.homeUnlink(i)
	}
	b.unlink(i)
	delete(b.index, f.Logical)
	b.freeList = append(b.freeList, i)
}

// BeginFlush marks a frame's program to Flash as in progress, which
// takes it out of the flush candidates. It panics if the frame is
// already flushing: the controller never programs one page twice.
func (b *Buffer) BeginFlush(f *Frame) {
	if f.flushing {
		panic(fmt.Sprintf("sram: page %d is already flushing", f.Logical))
	}
	f.flushing = true
	b.homeUnlink(f.idx)
}

// AbortFlush returns a flushing frame to an ordinary dirty frame at its
// existing FIFO position — the program was torn by a power failure or
// never got a target — and clears Dirtied. The frame re-enters its
// home's candidates by stamp, a walk of that list; only mount-time
// recovery aborts in place. A frame that is not flushing keeps its
// place.
func (b *Buffer) AbortFlush(f *Frame) {
	f.Dirtied = false
	if !f.flushing {
		return
	}
	f.flushing = false
	// Aborted frames are old (they were picked from the tail end), so
	// search from the oldest candidate.
	h := &b.homes[f.Home]
	at := h.head // first candidate newer than f
	for at != noFrame && b.frames[at].stamp < f.stamp {
		at = b.frames[at].hnext
	}
	b.homeLinkBefore(f.idx, at)
}

// Requeue moves a frame back to the head of the FIFO and clears its
// flush flags, used when a flush completed but the host re-wrote the
// page mid-program.
func (b *Buffer) Requeue(f *Frame) {
	if !f.flushing {
		b.homeUnlink(f.idx)
	}
	b.unlink(f.idx)
	b.linkHead(f.idx)
	f.flushing = false
	f.Dirtied = false
	b.homeAppend(f.idx)
}

// Oldest returns the oldest frame that is not already being flushed,
// or nil if every buffered page is mid-flush (or the buffer is empty).
// This is the flush candidate per §3.2: "pages are flushed from the
// tail".
func (b *Buffer) Oldest() *Frame { return b.OldestWhere(nil) }

// OldestWhere returns the oldest flushable frame whose home accept
// admits, or nil when there is none; a nil accept admits every home.
// accept is called at most once per home, and only for homes whose
// oldest candidate could still be the answer, so the cost is bounded
// by the number of homes, not by the buffer's occupancy.
func (b *Buffer) OldestWhere(accept func(home int) bool) *Frame {
	var best *Frame
	for h := range b.homes {
		i := b.homes[h].head
		if i == noFrame {
			continue
		}
		f := &b.frames[i]
		if best != nil && f.stamp > best.stamp {
			continue
		}
		if accept == nil || accept(h) {
			best = f
		}
	}
	return best
}

// Frames iterates the occupied frames from tail (oldest) to head
// (newest) until fn returns false. The callback must not insert or
// remove frames.
func (b *Buffer) Frames(fn func(*Frame) bool) {
	for i := b.tail; i != noFrame; {
		prev := b.frames[i].prev
		if !fn(&b.frames[i]) {
			return
		}
		i = prev
	}
}

// CheckIndex recounts the flush-candidate index against the FIFO:
// stamps rise strictly from tail to head, and each home's list holds
// exactly that home's occupied non-flushing frames, in FIFO order,
// with consistent back links. The invariant checker calls it.
func (b *Buffer) CheckIndex() error {
	cursor := make([]int32, len(b.homes)) // next expected member per home
	last := make([]int32, len(b.homes))   // member before it
	for h := range b.homes {
		cursor[h], last[h] = b.homes[h].head, noFrame
	}
	var stamp uint64
	seen := 0
	for i := b.tail; i != noFrame; i = b.frames[i].prev {
		f := &b.frames[i]
		if seen++; seen > len(b.index) {
			return fmt.Errorf("sram: the FIFO links more than the %d buffered frames", len(b.index))
		}
		if f.stamp <= stamp {
			return fmt.Errorf("sram: page %d carries FIFO stamp %d behind an older frame stamped %d", f.Logical, f.stamp, stamp)
		}
		stamp = f.stamp
		if f.flushing {
			continue
		}
		if f.Home < 0 || f.Home >= len(b.homes) {
			return fmt.Errorf("sram: flushable page %d has home %d outside the %d indexed homes", f.Logical, f.Home, len(b.homes))
		}
		if cursor[f.Home] != i {
			return fmt.Errorf("sram: home %d's flush candidates skip or misplace page %d (list has frame %d where the FIFO has frame %d)", f.Home, f.Logical, cursor[f.Home], i)
		}
		if f.hprev != last[f.Home] {
			return fmt.Errorf("sram: home %d's flush candidate page %d links back to frame %d, want %d", f.Home, f.Logical, f.hprev, last[f.Home])
		}
		last[f.Home], cursor[f.Home] = i, f.hnext
	}
	if stamp > b.clock {
		return fmt.Errorf("sram: newest FIFO stamp %d is ahead of the stamp counter %d", stamp, b.clock)
	}
	for h := range b.homes {
		if cursor[h] != noFrame {
			return fmt.Errorf("sram: home %d's flush candidates include frame %d, which is not a flushable frame of that home", h, cursor[h])
		}
		if b.homes[h].tail != last[h] {
			return fmt.Errorf("sram: home %d's flush candidates end at frame %d, want %d", h, b.homes[h].tail, last[h])
		}
	}
	return nil
}

// linkHead links frame i at the FIFO head and stamps it.
func (b *Buffer) linkHead(i int32) {
	f := &b.frames[i]
	b.clock++
	f.stamp = b.clock
	f.prev = noFrame
	f.next = b.head
	if b.head != noFrame {
		b.frames[b.head].prev = i
	}
	b.head = i
	if b.tail == noFrame {
		b.tail = i
	}
}

func (b *Buffer) unlink(i int32) {
	f := &b.frames[i]
	if f.prev != noFrame {
		b.frames[f.prev].next = f.next
	} else {
		b.head = f.next
	}
	if f.next != noFrame {
		b.frames[f.next].prev = f.prev
	} else {
		b.tail = f.prev
	}
	f.prev, f.next = noFrame, noFrame
}

// homeAppend links frame i, which carries the newest stamp, as its
// home's newest flush candidate.
func (b *Buffer) homeAppend(i int32) { b.homeLinkBefore(i, noFrame) }

// homeLinkBefore links frame i into its home's candidates just older
// than member at (noFrame: as the newest).
func (b *Buffer) homeLinkBefore(i, at int32) {
	f := &b.frames[i]
	h := &b.homes[f.Home]
	f.hnext = at
	if at != noFrame {
		f.hprev = b.frames[at].hprev
		b.frames[at].hprev = i
	} else {
		f.hprev = h.tail
		h.tail = i
	}
	if f.hprev != noFrame {
		b.frames[f.hprev].hnext = i
	} else {
		h.head = i
	}
}

func (b *Buffer) homeUnlink(i int32) {
	f := &b.frames[i]
	h := &b.homes[f.Home]
	if f.hprev != noFrame {
		b.frames[f.hprev].hnext = f.hnext
	} else {
		h.head = f.hnext
	}
	if f.hnext != noFrame {
		b.frames[f.hnext].hprev = f.hprev
	} else {
		h.tail = f.hprev
	}
	f.hprev, f.hnext = noFrame, noFrame
}
