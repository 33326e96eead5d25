package sram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestInsertLookupRemove(t *testing.T) {
	b := NewBuffer(4, 8, false)
	if b.Cap() != 4 || b.Len() != 0 || b.Full() {
		t.Fatalf("fresh buffer: cap=%d len=%d full=%v", b.Cap(), b.Len(), b.Full())
	}
	f := b.Insert(10, 2, []byte{1, 2, 3})
	if f.Logical != 10 || f.Home != 2 {
		t.Errorf("frame = %+v", f)
	}
	if !bytes.Equal(f.Data, []byte{1, 2, 3, 0, 0, 0, 0, 0}) {
		t.Errorf("payload = %v", f.Data)
	}
	if got := b.Lookup(10); got != f {
		t.Error("Lookup returned different frame")
	}
	if b.Lookup(11) != nil {
		t.Error("Lookup of absent page returned a frame")
	}
	b.Remove(f)
	if b.Len() != 0 || b.Lookup(10) != nil {
		t.Error("Remove did not clear the frame")
	}
}

func TestFIFOOrder(t *testing.T) {
	b := NewBuffer(4, 4, true)
	b.Insert(1, 0, nil)
	b.Insert(2, 0, nil)
	b.Insert(3, 0, nil)
	if got := b.Oldest(); got.Logical != 1 {
		t.Errorf("Oldest = %d, want 1", got.Logical)
	}
	b.Remove(b.Lookup(1))
	if got := b.Oldest(); got.Logical != 2 {
		t.Errorf("Oldest after removal = %d, want 2", got.Logical)
	}
}

func TestOldestSkipsFlushing(t *testing.T) {
	b := NewBuffer(4, 4, true)
	b.Insert(1, 0, nil)
	b.Insert(2, 0, nil)
	b.BeginFlush(b.Lookup(1))
	if got := b.Oldest(); got.Logical != 2 {
		t.Errorf("Oldest = %d, want 2 (1 is flushing)", got.Logical)
	}
	b.BeginFlush(b.Lookup(2))
	if got := b.Oldest(); got != nil {
		t.Errorf("Oldest = %v, want nil when all frames flushing", got)
	}
}

func TestOldestEmpty(t *testing.T) {
	b := NewBuffer(2, 4, true)
	if b.Oldest() != nil {
		t.Error("Oldest on empty buffer should be nil")
	}
}

func TestRequeue(t *testing.T) {
	b := NewBuffer(4, 4, true)
	b.Insert(1, 0, nil)
	b.Insert(2, 0, nil)
	f := b.Lookup(1)
	b.BeginFlush(f)
	f.Dirtied = true
	b.Requeue(f)
	if f.Flushing() || f.Dirtied {
		t.Error("Requeue did not clear flush flags")
	}
	// 1 moved to the head, so 2 is now oldest.
	if got := b.Oldest(); got.Logical != 2 {
		t.Errorf("Oldest after requeue = %d, want 2", got.Logical)
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	b := NewBuffer(4, 4, true)
	b.Insert(1, 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	b.Insert(1, 0, nil)
}

func TestFullInsertPanics(t *testing.T) {
	b := NewBuffer(2, 4, true)
	b.Insert(1, 0, nil)
	b.Insert(2, 0, nil)
	if !b.Full() {
		t.Fatal("buffer should be full")
	}
	defer func() {
		if recover() == nil {
			t.Error("insert into full buffer did not panic")
		}
	}()
	b.Insert(3, 0, nil)
}

func TestFramesIterationOrder(t *testing.T) {
	b := NewBuffer(8, 4, true)
	for i := uint32(1); i <= 5; i++ {
		b.Insert(i, 0, nil)
	}
	var order []uint32
	b.Frames(func(f *Frame) bool { order = append(order, f.Logical); return true })
	for i, want := range []uint32{1, 2, 3, 4, 5} {
		if order[i] != want {
			t.Fatalf("Frames order = %v", order)
		}
	}
	order = order[:0]
	b.Frames(func(f *Frame) bool { order = append(order, f.Logical); return f.Logical < 3 })
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("Frames visited %v after the callback returned false at 3", order)
	}
}

func TestFrameReuseClearsState(t *testing.T) {
	b := NewBuffer(1, 4, false)
	f := b.Insert(1, 3, []byte{9, 9, 9, 9})
	b.BeginFlush(f)
	f.Dirtied = true
	b.Remove(f)
	g := b.Insert(2, 0, []byte{1})
	if g.Flushing() || g.Dirtied {
		t.Error("reused frame kept flush flags")
	}
	if !bytes.Equal(g.Data, []byte{1, 0, 0, 0}) {
		t.Errorf("reused frame payload = %v", g.Data)
	}
}

func TestDatalessFrames(t *testing.T) {
	b := NewBuffer(2, 4, true)
	f := b.Insert(1, 0, []byte{1, 2, 3})
	if f.Data != nil {
		t.Error("dataless frame allocated payload")
	}
}

// TestChurnProperty exercises a random insert/remove/requeue/flush
// sequence and checks that the map, the FIFO links, the free list and
// the flush-candidate index agree, and that the index answers Oldest
// and OldestWhere exactly as a walk of the FIFO would.
func TestChurnProperty(t *testing.T) {
	const frames = 16
	b := NewBuffer(frames, 4, true)
	present := make(map[uint32]bool)
	check := func(step uint32) bool {
		if b.Len() != len(present) {
			t.Fatalf("step %d: Len=%d, want %d", step, b.Len(), len(present))
		}
		n := 0
		b.Frames(func(f *Frame) bool {
			if !present[f.Logical] {
				t.Fatalf("step %d: frame %d in FIFO but not in model", step, f.Logical)
			}
			n++
			return true
		})
		if n != len(present) {
			t.Fatalf("step %d: FIFO has %d frames, model %d", step, n, len(present))
		}
		if err := b.CheckIndex(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		all := func(int) bool { return true }
		odd := func(home int) bool { return home%2 == 1 }
		if got, want := b.Oldest(), scanOldest(b, all); got != want {
			t.Fatalf("step %d: Oldest = %v, the FIFO walk finds %v", step, got, want)
		}
		if got, want := b.OldestWhere(odd), scanOldest(b, odd); got != want {
			t.Fatalf("step %d: OldestWhere(odd homes) = %v, the FIFO walk finds %v", step, got, want)
		}
		return true
	}
	if err := quick.Check(func(ops []uint16) bool {
		for i, op := range ops {
			page := uint32(op % 32)
			switch {
			case present[page]:
				switch f := b.Lookup(page); {
				case op%3 == 0:
					b.Remove(f)
					delete(present, page)
				case op%3 == 1 && !f.Flushing():
					b.BeginFlush(f)
				case op%5 == 0:
					b.AbortFlush(f)
				default:
					b.Requeue(f)
				}
			case len(present) < frames:
				b.Insert(page, int(op%8), nil)
				present[page] = true
			default:
				victim := b.Oldest()
				for p := uint32(0); victim == nil; p++ { // everything is mid-flush
					victim = b.Lookup(p)
				}
				b.Remove(victim)
				delete(present, victim.Logical)
			}
			check(uint32(i))
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, tc := range []struct{ frames, pageSize int }{{0, 4}, {-1, 4}, {4, 0}} {
		func() {
			defer func() { recover() }()
			NewBuffer(tc.frames, tc.pageSize, true)
			t.Errorf("NewBuffer(%d, %d) did not panic", tc.frames, tc.pageSize)
		}()
	}
}

// scanOldest is the reference the index replaces: walk the FIFO from
// the tail and return the first non-flushing frame whose home accept
// admits.
func scanOldest(b *Buffer, accept func(home int) bool) *Frame {
	var found *Frame
	b.Frames(func(f *Frame) bool {
		if !f.Flushing() && accept(f.Home) {
			found = f
		}
		return found == nil
	})
	return found
}

// candidates lists one home's flush candidates, oldest first.
func candidates(b *Buffer, home int) []uint32 {
	var out []uint32
	if home >= len(b.homes) {
		return out
	}
	for i := b.homes[home].head; i != noFrame; i = b.frames[i].hnext {
		out = append(out, b.frames[i].Logical)
	}
	return out
}

// TestFlushCandidateOrder walks one buffer through every transition
// that touches the index and checks each home's candidates, which must
// always be its non-flushing frames in FIFO (stamp) order.
func TestFlushCandidateOrder(t *testing.T) {
	b := NewBuffer(8, 4, true)
	pages := func(ps ...uint32) []uint32 { return ps }
	steps := []struct {
		name   string
		do     func()
		home0  []uint32
		home1  []uint32
		oldest uint32 // 0: none
	}{
		{"insert interleaves homes", func() {
			b.Insert(1, 0, nil)
			b.Insert(2, 1, nil)
			b.Insert(3, 0, nil)
			b.Insert(4, 1, nil)
			b.Insert(5, 0, nil)
		}, pages(1, 3, 5), pages(2, 4), 1},
		{"begin flush leaves the candidates", func() {
			b.BeginFlush(b.Lookup(1))
			b.BeginFlush(b.Lookup(3))
		}, pages(5), pages(2, 4), 2},
		{"in-place abort re-enters by stamp, between older and newer", func() {
			b.AbortFlush(b.Lookup(3))
		}, pages(3, 5), pages(2, 4), 2},
		{"in-place abort of the oldest re-enters at the front", func() {
			b.AbortFlush(b.Lookup(1))
		}, pages(1, 3, 5), pages(2, 4), 1},
		{"abort of a frame that is not flushing keeps its place", func() {
			b.Lookup(3).Dirtied = true
			b.AbortFlush(b.Lookup(3))
			if b.Lookup(3).Dirtied {
				t.Error("AbortFlush left Dirtied set")
			}
		}, pages(1, 3, 5), pages(2, 4), 1},
		{"requeue of a flushing frame takes a fresh stamp", func() {
			b.BeginFlush(b.Lookup(1))
			b.Requeue(b.Lookup(1))
		}, pages(3, 5, 1), pages(2, 4), 2},
		{"requeue of a candidate moves it to the back", func() {
			b.Requeue(b.Lookup(2))
		}, pages(3, 5, 1), pages(4, 2), 3},
		{"remove of a candidate", func() {
			b.Remove(b.Lookup(5))
		}, pages(3, 1), pages(4, 2), 3},
		{"remove of a flushing frame", func() {
			b.BeginFlush(b.Lookup(3))
			b.Remove(b.Lookup(3))
		}, pages(1), pages(4, 2), 4},
		{"a reused frame joins its new home", func() {
			b.Insert(6, 1, nil)
		}, pages(1), pages(4, 2, 6), 4},
		{"everything mid-flush", func() {
			for _, p := range []uint32{1, 4, 2, 6} {
				b.BeginFlush(b.Lookup(p))
			}
		}, nil, nil, 0},
		{"aborts in arbitrary order restore FIFO order", func() {
			for _, p := range []uint32{6, 4, 1, 2} {
				b.AbortFlush(b.Lookup(p))
			}
		}, pages(1), pages(4, 2, 6), 4},
	}
	equal := func(a, b []uint32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, st := range steps {
		st.do()
		if err := b.CheckIndex(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := candidates(b, 0); !equal(got, st.home0) {
			t.Fatalf("%s: home 0 candidates = %v, want %v", st.name, got, st.home0)
		}
		if got := candidates(b, 1); !equal(got, st.home1) {
			t.Fatalf("%s: home 1 candidates = %v, want %v", st.name, got, st.home1)
		}
		var oldest uint32
		if f := b.Oldest(); f != nil {
			oldest = f.Logical
		}
		if oldest != st.oldest {
			t.Fatalf("%s: Oldest = %d, want %d", st.name, oldest, st.oldest)
		}
	}
}

// TestOldestWhereJudgesEachHomeOnce: the index asks about a home at
// most once per query, and not at all when its oldest candidate is
// already younger than an accepted one.
func TestOldestWhereJudgesEachHomeOnce(t *testing.T) {
	b := NewBuffer(64, 4, true)
	for p := uint32(0); p < 64; p++ {
		b.Insert(p, int(p%4), nil)
	}
	asked := make(map[int]int)
	got := b.OldestWhere(func(home int) bool { asked[home]++; return home >= 2 })
	if got == nil || got.Logical != 2 {
		t.Fatalf("OldestWhere = %v, want page 2", got)
	}
	for home, n := range asked {
		if n != 1 {
			t.Errorf("home %d judged %d times", home, n)
		}
	}
	if asked[3] != 0 {
		t.Error("home 3 was judged although home 2's older candidate had already won")
	}
	if b.OldestWhere(func(int) bool { return false }) != nil {
		t.Error("OldestWhere returned a frame of a rejected home")
	}
}

// TestCheckIndexFires corrupts the index one link at a time.
func TestCheckIndexFires(t *testing.T) {
	build := func() *Buffer {
		b := NewBuffer(8, 4, true)
		for p := uint32(1); p <= 6; p++ {
			b.Insert(p, int(p%2), nil)
		}
		b.BeginFlush(b.Lookup(3))
		if err := b.CheckIndex(); err != nil {
			t.Fatalf("consistent buffer rejected: %v", err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b *Buffer)
	}{
		{"forward link skips a member", func(b *Buffer) { b.Lookup(2).hnext = b.Lookup(6).idx }},
		{"back link", func(b *Buffer) { b.Lookup(4).hprev = noFrame }},
		{"list tail", func(b *Buffer) { b.homes[0].tail = b.Lookup(2).idx }},
		{"flushing frame still listed", func(b *Buffer) { b.Lookup(1).flushing = true }},
		{"candidate not listed", func(b *Buffer) { b.Lookup(3).flushing = false }},
		{"home changed under the index", func(b *Buffer) { b.Lookup(5).Home = 0 }},
		{"stamp order", func(b *Buffer) { b.Lookup(2).stamp = b.Lookup(4).stamp }},
	} {
		b := build()
		tc.corrupt(b)
		if err := b.CheckIndex(); err == nil {
			t.Errorf("%s: CheckIndex accepted the corrupted index", tc.name)
		}
	}
}

func TestNegativeHomePanics(t *testing.T) {
	b := NewBuffer(2, 4, true)
	defer func() {
		if recover() == nil {
			t.Error("insert with a negative home did not panic")
		}
	}()
	b.Insert(1, -1, nil)
}

// TestIndexUpkeepDoesNotAllocate: once every home has been seen and the
// frames own their payloads, a frame's whole life allocates nothing.
func TestIndexUpkeepDoesNotAllocate(t *testing.T) {
	b := NewBuffer(16, 64, false)
	payload := make([]byte, 64)
	cycle := func() {
		for p := uint32(0); p < 16; p++ {
			b.Insert(p, int(p%8), payload)
		}
		for p := uint32(0); p < 16; p++ {
			f := b.Lookup(p)
			b.BeginFlush(f)
			if p%2 == 0 {
				b.Requeue(f)
				b.BeginFlush(f)
			}
		}
		if b.Oldest() != nil {
			t.Fatal("a frame is still a candidate")
		}
		for p := uint32(0); p < 16; p++ {
			b.Remove(b.Lookup(p))
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Insert+BeginFlush+Requeue+Remove allocates %.1f times per cycle, want 0", n)
	}
}
