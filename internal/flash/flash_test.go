package flash

import (
	"bytes"
	"testing"
	"testing/quick"

	"envy/internal/fault"
	"envy/internal/sim"
)

func testGeometry() Geometry {
	return Geometry{PageSize: 8, PagesPerSegment: 4, Segments: 4, Banks: 2}
}

func mustNew(t *testing.T, geo Geometry, opts ...Option) *Array {
	t.Helper()
	a, err := New(geo, PaperTiming(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	good := testGeometry()
	if err := good.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	for name, g := range map[string]Geometry{
		"zero page size":     {PageSize: 0, PagesPerSegment: 4, Segments: 4, Banks: 2},
		"zero pages/segment": {PageSize: 8, PagesPerSegment: 0, Segments: 4, Banks: 2},
		"one segment":        {PageSize: 8, PagesPerSegment: 4, Segments: 1, Banks: 1},
		"zero banks":         {PageSize: 8, PagesPerSegment: 4, Segments: 4, Banks: 0},
		"banks not dividing": {PageSize: 8, PagesPerSegment: 4, Segments: 5, Banks: 2},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: geometry accepted", name)
		}
	}
}

func TestPaperGeometry(t *testing.T) {
	g := PaperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(); got != 2<<30 {
		t.Errorf("capacity = %d, want 2GiB", got)
	}
	if g.Segments != 128 {
		t.Errorf("segments = %d, want 128", g.Segments)
	}
	// 16 MB segments, as in §5.1.
	if got := int64(g.PageSize) * int64(g.PagesPerSegment); got != 16<<20 {
		t.Errorf("segment size = %d, want 16MiB", got)
	}
}

func TestPPNRoundTrip(t *testing.T) {
	g := testGeometry()
	if err := quick.Check(func(s, p uint8) bool {
		seg, page := int(s)%g.Segments, int(p)%g.PagesPerSegment
		gotSeg, gotPage := g.Split(g.PPN(seg, page))
		return gotSeg == seg && gotPage == page
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBankStriping(t *testing.T) {
	g := testGeometry()
	if g.BankOf(0) == g.BankOf(1) {
		t.Error("consecutive segments in the same bank; striping broken")
	}
	if g.BankOf(0) != g.BankOf(2) {
		t.Error("stride-Banks segments should share a bank")
	}
}

func TestProgramReadInvalidateErase(t *testing.T) {
	a := mustNew(t, testGeometry())
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ppn := a.Geometry().PPN(1, 2)

	if got := a.State(ppn); got != Free {
		t.Fatalf("initial state = %v", got)
	}
	a.Program(ppn, 42, payload)
	if got := a.State(ppn); got != Valid {
		t.Fatalf("state after program = %v", got)
	}
	if got := a.Owner(ppn); got != 42 {
		t.Errorf("owner = %d", got)
	}
	if !bytes.Equal(a.Page(ppn), payload) {
		t.Errorf("page = %v, want %v", a.Page(ppn), payload)
	}
	free, live, invalid := a.SegmentCounts(1)
	if free != 3 || live != 1 || invalid != 0 {
		t.Errorf("counts = %d/%d/%d", free, live, invalid)
	}

	a.Invalidate(ppn)
	if got := a.State(ppn); got != Invalid {
		t.Fatalf("state after invalidate = %v", got)
	}
	if got := a.Owner(ppn); got != NoPage {
		t.Errorf("owner after invalidate = %d", got)
	}
	free, live, invalid = a.SegmentCounts(1)
	if free != 3 || live != 0 || invalid != 1 {
		t.Errorf("counts = %d/%d/%d", free, live, invalid)
	}

	a.Erase(1)
	if got := a.State(ppn); got != Free {
		t.Fatalf("state after erase = %v", got)
	}
	if got := a.EraseCount(1); got != 1 {
		t.Errorf("erase count = %d", got)
	}
	free, live, invalid = a.SegmentCounts(1)
	if free != 4 || live != 0 || invalid != 0 {
		t.Errorf("counts after erase = %d/%d/%d", free, live, invalid)
	}
}

func TestWriteOnceViolationPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("reprogramming a valid page did not panic")
		}
	}()
	a.Program(ppn, 2, nil)
}

func TestEraseWithLiveDataPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	a.Program(a.Geometry().PPN(0, 0), 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("erasing a segment with live data did not panic")
		}
	}()
	a.Erase(0)
}

func TestInvalidateFreePanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("invalidating a free page did not panic")
		}
	}()
	a.Invalidate(0)
}

func TestReadFreePagePanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("reading a free page did not panic")
		}
	}()
	a.Page(0)
}

func TestDataless(t *testing.T) {
	a := mustNew(t, testGeometry(), Dataless())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 7, []byte{1, 2, 3})
	if got := a.Page(ppn); got != nil {
		t.Errorf("dataless Page = %v, want nil", got)
	}
	if a.Owner(ppn) != 7 || a.State(ppn) != Valid {
		t.Error("dataless array must still track state and ownership")
	}
}

func TestShortPayloadZeroFilled(t *testing.T) {
	a := mustNew(t, testGeometry())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 1, []byte{0xFF})
	got := a.Page(ppn)
	want := []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("page = %v, want %v", got, want)
	}
	// Page reuse after erase must not leak previous contents.
	a.Invalidate(ppn)
	a.Erase(0)
	a.Program(ppn, 2, nil)
	if !bytes.Equal(a.Page(ppn), make([]byte, 8)) {
		t.Error("reprogrammed page leaked stale bytes")
	}
}

func TestLivePagesOrder(t *testing.T) {
	a := mustNew(t, testGeometry())
	g := a.Geometry()
	for i := 0; i < 4; i++ {
		a.Program(g.PPN(2, i), uint32(10+i), nil)
	}
	a.Invalidate(g.PPN(2, 1))
	var pages []int
	var owners []uint32
	a.LivePages(2, func(page int, logical uint32) {
		pages = append(pages, page)
		owners = append(owners, logical)
	})
	wantPages := []int{0, 2, 3}
	wantOwners := []uint32{10, 12, 13}
	for i := range wantPages {
		if pages[i] != wantPages[i] || owners[i] != wantOwners[i] {
			t.Fatalf("LivePages = %v/%v, want %v/%v", pages, owners, wantPages, wantOwners)
		}
	}
}

func TestWearTracking(t *testing.T) {
	a := mustNew(t, testGeometry())
	for i := 0; i < 5; i++ {
		a.Erase(3)
	}
	a.Erase(0)
	if got := a.TotalErases(); got != 6 {
		t.Errorf("TotalErases = %d", got)
	}
	min, max := a.WearSpread()
	if min != 0 || max != 5 {
		t.Errorf("WearSpread = %d..%d, want 0..5", min, max)
	}
}

func TestWearSlowdown(t *testing.T) {
	timing := PaperTiming()
	timing.WearSlowdown = 1.0 // 2x at spec cycles
	timing.SpecCycles = 10
	a, err := New(testGeometry(), timing)
	if err != nil {
		t.Fatal(err)
	}
	base := a.ProgramTime(0)
	if base != 4*sim.Microsecond {
		t.Fatalf("fresh program time = %v", base)
	}
	for i := 0; i < 10; i++ {
		a.Erase(0)
	}
	if got := a.ProgramTime(0); got != 8*sim.Microsecond {
		t.Errorf("program time at spec cycles = %v, want 8µs", got)
	}
	if got := a.EraseTime(0); got != 100*sim.Millisecond {
		t.Errorf("erase time at spec cycles = %v, want 100ms", got)
	}
	// Other segments unaffected.
	if got := a.ProgramTime(1); got != 4*sim.Microsecond {
		t.Errorf("unworn segment program time = %v", got)
	}
}

func TestNoWearSlowdownByDefault(t *testing.T) {
	a := mustNew(t, testGeometry())
	for i := 0; i < 100; i++ {
		a.Erase(0)
	}
	if got := a.ProgramTime(0); got != 4*sim.Microsecond {
		t.Errorf("program time changed without WearSlowdown: %v", got)
	}
}

func TestProgramsCounter(t *testing.T) {
	a := mustNew(t, testGeometry())
	g := a.Geometry()
	for i := 0; i < 3; i++ {
		a.Program(g.PPN(0, i), uint32(i), nil)
	}
	if got := a.Programs(); got != 3 {
		t.Errorf("Programs = %d", got)
	}
}

// The three tests below pin the bit physics the crash model relies on
// (§2): programming only pulls bits low (1→0), erasing only raises them
// (0→1), so a page interrupted mid-program lies bitwise between erased
// 0xFF and its payload, and a segment interrupted mid-erase lies
// between its old contents and 0xFF.

// rawPage returns a page's stored bytes whatever its state (Page only
// serves Valid pages).
func rawPage(a *Array, ppn uint32) []byte {
	seg, page := a.geo.Split(ppn)
	return a.segs[seg].data[page*a.geo.PageSize : (page+1)*a.geo.PageSize]
}

func randomBytes(n int, seed uint64) []byte {
	r := sim.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// mustCrash runs op and fails the test unless an armed crash point
// fires inside it.
func mustCrash(t *testing.T, op func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(*fault.Crash); !ok {
			t.Fatal("armed crash point did not fire")
		}
	}()
	op()
}

// checkTorn asserts the shape of a program of payload interrupted at
// byte n: the bytes before n carry the payload, every byte is between
// erased and payload (b & payload == payload), and every byte past n
// still reads erased.
func checkTorn(t *testing.T, got, payload []byte, n int) {
	t.Helper()
	for i, b := range got {
		switch {
		case i < n && b != payload[i]:
			t.Fatalf("byte %d = %#x, want payload %#x (programmed before the tear)", i, b, payload[i])
		case b&payload[i] != payload[i]:
			t.Fatalf("byte %d = %#x is not between payload %#x and erased 0xFF", i, b, payload[i])
		case i > n && b != 0xFF:
			t.Fatalf("byte %d past the tear at %d = %#x, want 0xFF", i, n, b)
		}
	}
}

func TestTornProgramOnlyClearsBits(t *testing.T) {
	geo := Geometry{PageSize: 64, PagesPerSegment: 4, Segments: 2, Banks: 1}
	ppn := geo.PPN(0, 1)
	for seed := uint64(0); seed < 32; seed++ {
		a := mustNew(t, geo)
		payload := randomBytes(geo.PageSize, seed)
		plan := fault.Plan{Program: 1, Seed: seed}
		a.SetInjector(fault.NewInjector(plan))
		mustCrash(t, func() { a.Program(ppn, 7, payload) })
		if a.State(ppn) != Torn {
			t.Fatalf("seed %d: state after torn program = %v", seed, a.State(ppn))
		}
		// A twin injector replays the tear the array was handed.
		tear, _ := fault.NewInjector(plan).AtProgram(geo.PageSize)
		checkTorn(t, rawPage(a, ppn), payload, tear.FullBytes)
	}
}

func TestTearInFlightOnlyClearsBits(t *testing.T) {
	geo := Geometry{PageSize: 64, PagesPerSegment: 4, Segments: 2, Banks: 1}
	ppn := geo.PPN(1, 2)
	for seed := uint64(0); seed < 32; seed++ {
		a := mustNew(t, geo)
		payload := randomBytes(geo.PageSize, seed)
		a.Program(ppn, 7, payload)
		a.TearInFlight(ppn, seed)
		if a.State(ppn) != Torn {
			t.Fatalf("seed %d: state after TearInFlight = %v", seed, a.State(ppn))
		}
		checkTorn(t, rawPage(a, ppn), payload, sim.NewRNG(seed).Intn(geo.PageSize))
	}
}

func TestHalfEraseOnlyRaisesBits(t *testing.T) {
	geo := Geometry{PageSize: 64, PagesPerSegment: 4, Segments: 2, Banks: 1}
	for seed := uint64(0); seed < 32; seed++ {
		a := mustNew(t, geo)
		old := randomBytes(geo.PageSize*geo.PagesPerSegment, seed)
		for p := 0; p < geo.PagesPerSegment; p++ {
			ppn := geo.PPN(0, p)
			a.Program(ppn, uint32(p), old[p*geo.PageSize:(p+1)*geo.PageSize])
			a.Invalidate(ppn)
		}
		a.SetInjector(fault.NewInjector(fault.Plan{Erase: 1, Seed: seed}))
		mustCrash(t, func() { a.Erase(0) })
		if !a.HalfErased(0) || a.SegmentTorn(0) != geo.PagesPerSegment {
			t.Fatalf("seed %d: half-erased %v with %d torn pages", seed, a.HalfErased(0), a.SegmentTorn(0))
		}
		for p := 0; p < geo.PagesPerSegment; p++ {
			for i, b := range rawPage(a, geo.PPN(0, p)) {
				if was := old[p*geo.PageSize+i]; b&was != was {
					t.Fatalf("seed %d: page %d byte %d went %#x → %#x; erasing cleared a bit", seed, p, i, was, b)
				}
			}
		}
	}
}

func TestOutOfRangePPNPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range PPN did not panic")
		}
	}()
	a.State(uint32(a.Geometry().Pages()))
}
