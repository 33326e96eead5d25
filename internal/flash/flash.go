// Package flash models the eNVy Flash memory array: banks of 256
// byte-wide chips whose rows of erase blocks form large, independently
// erasable "segments" (§3.3, Figure 4).
//
// The model captures everything the eNVy evaluation depends on:
//
//   - write-once semantics: a physical page must be erased (Free)
//     before it can be programmed, and programmed pages cannot be
//     rewritten until the whole segment is erased;
//   - bulk erase: only whole segments erase, taking ~50 ms;
//   - asymmetric timing: ~100 ns reads and wide-bank transfers versus
//     ~4 µs page programs (Figure 12);
//   - endurance: per-segment program/erase cycle counters, an optional
//     wear-dependent slowdown, and the spec'd cycle budget that the
//     lifetime estimate (§5.5) divides by.
//
// The array optionally stores page payloads. Timing-only studies (the
// 2 GB TPC-A runs) can disable payload storage with Dataless to keep
// host memory use proportional to metadata, not capacity.
package flash

import (
	"fmt"

	"envy/internal/fault"
	"envy/internal/sim"
)

// PageState is the lifecycle state of one physical page.
type PageState uint8

// Page lifecycle: erased pages are Free, programming makes them Valid,
// copy-on-write or cleaning makes stale copies Invalid, and only a
// segment erase returns Invalid pages to Free. A power failure during
// a program leaves the page Torn: its contents are unreliable and the
// recovery mount quarantines it to Invalid before normal operation
// resumes.
const (
	Free PageState = iota
	Valid
	Invalid
	Torn
)

func (s PageState) String() string {
	switch s {
	case Free:
		return "free"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Torn:
		return "torn"
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// NoPage is the sentinel "no physical page" value.
const NoPage = ^uint32(0)

// DiffOwner is the sentinel logical owner recorded for shared
// diff-record unit pages (differential flush policy): a unit packs
// records for several logical pages, so no single logical page owns
// it. Distinct from NoPage so ownership checks can tell "no owner"
// from "owned by the diff directory".
const DiffOwner = ^uint32(0) - 1

// Geometry describes the physical organization of the array.
type Geometry struct {
	PageSize        int // bytes per page; the bank width (256 in the paper)
	PagesPerSegment int // pages in one independently erasable segment
	Segments        int // number of segments in the array
	Banks           int // independently programmable banks (8 in the paper)
}

// Paper-scale geometry from Figure 12: 2 GB of Flash in 8 banks of 256
// one-megabyte chips, 128 segments of 16 MB, 256-byte pages.
func PaperGeometry() Geometry {
	return Geometry{PageSize: 256, PagesPerSegment: 64 * 1024, Segments: 128, Banks: 8}
}

// SmallGeometry is a scaled-down profile used by tests and default
// benchmarks: 128 segments of 256 pages (8 MB total). Cleaning-policy
// behaviour depends on segment counts and utilization, not absolute
// size, so shapes measured here match the paper-scale profile.
func SmallGeometry() Geometry {
	return Geometry{PageSize: 256, PagesPerSegment: 256, Segments: 128, Banks: 8}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("flash: PageSize must be positive, got %d", g.PageSize)
	case g.PagesPerSegment <= 0:
		return fmt.Errorf("flash: PagesPerSegment must be positive, got %d", g.PagesPerSegment)
	case g.Segments < 2:
		return fmt.Errorf("flash: need at least 2 segments (one spare for cleaning), got %d", g.Segments)
	case g.Banks <= 0:
		return fmt.Errorf("flash: Banks must be positive, got %d", g.Banks)
	case g.Segments%g.Banks != 0:
		return fmt.Errorf("flash: Segments (%d) must divide evenly into Banks (%d)", g.Segments, g.Banks)
	}
	return nil
}

// Pages returns the total number of physical pages.
func (g Geometry) Pages() int { return g.PagesPerSegment * g.Segments }

// Capacity returns the array capacity in bytes.
func (g Geometry) Capacity() int64 {
	return int64(g.PageSize) * int64(g.PagesPerSegment) * int64(g.Segments)
}

// BankOf returns the bank a segment's chips belong to. Segments are
// striped across banks so that consecutive segments land in different
// banks, which is what lets the §6 extension run concurrent programs.
func (g Geometry) BankOf(segment int) int { return segment % g.Banks }

// PPN composes a physical page number from a segment index and a page
// index within that segment.
func (g Geometry) PPN(segment, page int) uint32 {
	return uint32(segment*g.PagesPerSegment + page)
}

// Split decomposes a physical page number.
func (g Geometry) Split(ppn uint32) (segment, page int) {
	return int(ppn) / g.PagesPerSegment, int(ppn) % g.PagesPerSegment
}

// Timing holds the Flash chip timing constants (Figure 12) plus the
// endurance model from §2.
type Timing struct {
	Read     sim.Duration // random read access (100 ns)
	Transfer sim.Duration // one bank-wide page transfer cycle (100 ns)
	Program  sim.Duration // bank-parallel page program (4 µs)
	Erase    sim.Duration // segment erase (50 ms)

	// SpecCycles is the manufacturer-guaranteed program/erase cycle
	// count per block (1,000,000 for the paper's parts).
	SpecCycles int64

	// WearSlowdown, if nonzero, degrades Program and Erase times
	// linearly with use: at SpecCycles accumulated cycles the
	// operations take (1+WearSlowdown)× their nominal time (§2 notes
	// that program and erase times slightly degrade per cycle).
	WearSlowdown float64
}

// PaperTiming returns the Figure 12 timing constants.
func PaperTiming() Timing {
	return Timing{
		Read:       100 * sim.Nanosecond,
		Transfer:   100 * sim.Nanosecond,
		Program:    4 * sim.Microsecond,
		Erase:      50 * sim.Millisecond,
		SpecCycles: 1_000_000,
	}
}

// segment is the per-segment state: page lifecycle, reverse map from
// physical page to the logical page stored there, wear, and payloads.
type segment struct {
	state   []PageState
	owner   []uint32 // logical page stored in each physical page; NoPage if none
	data    []byte   // nil until first program when payloads are enabled
	free    int
	live    int
	invalid int
	torn    int
	erases  int64 // program/erase cycles this segment has consumed

	// halfErased marks a segment whose erase was interrupted by a power
	// failure: every page is Torn and the segment must be re-erased
	// before use. Cleared by Erase.
	halfErased bool
}

// Array is the Flash array. It is not safe for concurrent use; the
// eNVy controller serializes access, as the hardware memory controller
// does in the paper.
type Array struct {
	geo      Geometry
	timing   Timing
	dataless bool
	segs     []segment
	programs int64 // total page program operations, across all segments

	// programBytes tallies the bytes actually programmed: PageSize per
	// full-page program, or the used prefix for partial-page unit
	// programs (ProgramUsed). The write-amplification studies compare
	// this across flush policies.
	programBytes int64

	// inj, when set, is consulted at every program and erase — the
	// operations a power failure can physically interrupt. A firing
	// injector leaves the torn state behind and panics with a
	// *fault.Crash, which the controller catches at its entry points.
	inj *fault.Injector

	// erases is the array-wide erase tally, maintained independently of
	// the per-segment counters so that the invariant checker can
	// cross-check the wear accounting (the two are updated at the same
	// site today, but the checker guards every future refactor).
	erases int64
}

// Option configures an Array.
type Option func(*Array)

// Dataless disables payload storage: programs record page state and
// ownership but discard contents, and Page returns nil. Used for large
// timing-only simulations.
func Dataless() Option { return func(a *Array) { a.dataless = true } }

// New returns an erased Flash array with the given geometry and timing.
func New(geo Geometry, timing Timing, opts ...Option) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{geo: geo, timing: timing}
	for _, opt := range opts {
		opt(a)
	}
	a.segs = make([]segment, geo.Segments)
	for i := range a.segs {
		a.segs[i] = segment{
			state: make([]PageState, geo.PagesPerSegment),
			owner: make([]uint32, geo.PagesPerSegment),
			free:  geo.PagesPerSegment,
		}
		for j := range a.segs[i].owner {
			a.segs[i].owner[j] = NoPage
		}
	}
	return a, nil
}

// Geometry returns the array's physical organization.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the chip timing constants.
func (a *Array) Timing() Timing { return a.timing }

// ReadTime returns the latency of a random page (or word) read.
func (a *Array) ReadTime() sim.Duration { return a.timing.Read }

// TransferTime returns the latency of one bank-wide page transfer.
func (a *Array) TransferTime() sim.Duration { return a.timing.Transfer }

// wearFactor returns the multiplicative slowdown for long operations on
// the given segment, per the Timing wear model.
func (a *Array) wearFactor(seg int) float64 {
	if a.timing.WearSlowdown == 0 || a.timing.SpecCycles == 0 {
		return 1
	}
	return 1 + a.timing.WearSlowdown*float64(a.segs[seg].erases)/float64(a.timing.SpecCycles)
}

// ProgramTime returns the current page program latency for a segment,
// including wear-induced slowdown.
func (a *Array) ProgramTime(seg int) sim.Duration {
	return sim.Duration(float64(a.timing.Program) * a.wearFactor(seg))
}

// EraseTime returns the current segment erase latency, including
// wear-induced slowdown.
func (a *Array) EraseTime(seg int) sim.Duration {
	return sim.Duration(float64(a.timing.Erase) * a.wearFactor(seg))
}

func (a *Array) checkPPN(ppn uint32) (seg, page int) {
	if int(ppn) >= a.geo.Pages() {
		panic(fmt.Sprintf("flash: physical page %d out of range (array has %d pages)", ppn, a.geo.Pages()))
	}
	return a.geo.Split(ppn)
}

// State returns the lifecycle state of a physical page.
func (a *Array) State(ppn uint32) PageState {
	seg, page := a.checkPPN(ppn)
	return a.segs[seg].state[page]
}

// Owner returns the logical page stored at a physical page, or NoPage.
func (a *Array) Owner(ppn uint32) uint32 {
	seg, page := a.checkPPN(ppn)
	return a.segs[seg].owner[page]
}

// Page returns the stored payload of a Valid physical page. It returns
// nil if the array is dataless. The returned slice aliases the array's
// storage; callers must not modify it.
func (a *Array) Page(ppn uint32) []byte {
	seg, page := a.checkPPN(ppn)
	s := &a.segs[seg]
	if s.state[page] != Valid {
		panic(fmt.Sprintf("flash: reading %s page %d", s.state[page], ppn))
	}
	if a.dataless || s.data == nil {
		return nil
	}
	return s.data[page*a.geo.PageSize : (page+1)*a.geo.PageSize]
}

// Program writes a page: it marks the physical page Valid, records the
// logical owner, and stores the payload (unless dataless). The page
// must be Free — programming a non-erased page is a write-once
// violation and panics, because it indicates a controller bug rather
// than a runtime condition.
func (a *Array) Program(ppn uint32, logical uint32, payload []byte) {
	a.program(ppn, logical, payload, a.geo.PageSize)
}

// CopyPage programs dst with the payload of the Valid page src — the
// cleaner's relocation primitive. State accounting, crash points, and
// counters are identical to Program(dst, logical, Page(src)).
func (a *Array) CopyPage(dst, src, logical uint32) {
	a.program(dst, logical, a.Page(src), a.geo.PageSize)
}

// ProgramUsed is Program for partially filled pages: used is the
// number of bytes actually occupied (a diff-record unit's header plus
// records), which is what the byte tally charges. The physical page is
// still consumed whole — flash programs at page granularity — so state
// accounting is identical to Program.
func (a *Array) ProgramUsed(ppn uint32, logical uint32, payload []byte, used int) {
	if used < 0 || used > a.geo.PageSize {
		panic(fmt.Sprintf("flash: programming page %d with %d used bytes (page size %d)", ppn, used, a.geo.PageSize))
	}
	a.program(ppn, logical, payload, used)
}

// program is the shared body of Program, CopyPage and ProgramUsed:
// state, counters, crash point, then the payload.
func (a *Array) program(ppn uint32, logical uint32, payload []byte, used int) {
	seg, page := a.checkPPN(ppn)
	s := &a.segs[seg]
	if s.state[page] != Free {
		panic(fmt.Sprintf("flash: programming %s page %d (write-once violation)", s.state[page], ppn))
	}
	if a.inj != nil {
		if tear, crash := a.inj.AtProgram(a.geo.PageSize); crash {
			a.tearProgram(s, page, payload, tear)
			panic(&fault.Crash{Point: fault.PointProgram, PPN: ppn})
		}
	}
	s.state[page] = Valid
	s.owner[page] = logical
	s.free--
	s.live++
	a.programs++
	a.programBytes += int64(used)
	if a.dataless {
		return
	}
	if s.data == nil {
		s.data = make([]byte, a.geo.PagesPerSegment*a.geo.PageSize)
	}
	copyPad(s.data[page*a.geo.PageSize:(page+1)*a.geo.PageSize], payload)
}

// copyPad fills dst with payload, zero-padding the tail (Program
// zero-pads short payloads; nil payload writes a zero page).
func copyPad(dst, payload []byte) {
	n := copy(dst, payload)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Invalidate marks a Valid physical page Invalid (its logical page has
// moved elsewhere). The space is reclaimed only by erasing the segment.
func (a *Array) Invalidate(ppn uint32) {
	seg, page := a.checkPPN(ppn)
	s := &a.segs[seg]
	if s.state[page] != Valid {
		panic(fmt.Sprintf("flash: invalidating %s page %d", s.state[page], ppn))
	}
	s.state[page] = Invalid
	s.owner[page] = NoPage
	s.live--
	s.invalid++
}

// Erase bulk-erases a segment, returning every page to Free and
// charging one program/erase cycle. Erasing a segment that still holds
// Valid pages destroys live data and panics: the cleaner must copy
// live pages out first. Torn pages and a half-erased marking are wiped
// along with everything else — re-erasing is exactly how recovery
// repairs an interrupted erase.
func (a *Array) Erase(seg int) {
	s := &a.segs[seg]
	if s.live != 0 {
		panic(fmt.Sprintf("flash: erasing segment %d with %d live pages", seg, s.live))
	}
	if a.inj != nil && a.inj.AtErase() {
		a.halfErase(s)
		panic(&fault.Crash{Point: fault.PointErase, Seg: seg})
	}
	for i := range s.state {
		s.state[i] = Free
		s.owner[i] = NoPage
	}
	s.free = a.geo.PagesPerSegment
	s.invalid = 0
	s.torn = 0
	s.halfErased = false
	s.erases++
	a.erases++
	// Payload memory is kept allocated; contents of erased Flash are
	// all-ones on real chips, but nothing may read a Free page.
}

// SetInjector installs (or, with nil, removes) the crash-point
// injector consulted at every program and erase.
func (a *Array) SetInjector(inj *fault.Injector) { a.inj = inj }

// tearProgram records an interrupted program: the page becomes Torn,
// holding the payload's leading bytes, one partially programmed byte
// (programming only clears bits — flash/cui.go's finishOp ANDs — so
// the interrupted byte is payload AND'ed with the bits already pulled
// low), and erased 0xFF bytes beyond the interruption point.
func (a *Array) tearProgram(s *segment, page int, payload []byte, tear fault.Tear) {
	s.state[page] = Torn
	s.owner[page] = NoPage
	s.free--
	s.torn++
	if a.dataless {
		return
	}
	if s.data == nil {
		s.data = make([]byte, a.geo.PagesPerSegment*a.geo.PageSize)
	}
	dst := s.data[page*a.geo.PageSize : (page+1)*a.geo.PageSize]
	at := func(i int) byte {
		if i < len(payload) {
			return payload[i]
		}
		return 0 // Program zero-pads short payloads
	}
	n := tear.FullBytes
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = at(i)
	}
	if n < len(dst) {
		dst[n] = at(n) | ^tear.PartialMask // only PartialMask's zero bits got pulled low
		for i := n + 1; i < len(dst); i++ {
			dst[i] = 0xFF // untouched: still erased
		}
	}
}

// halfErase records an interrupted segment erase: every page becomes
// Torn with random subsets of bits floated back toward 1, and the
// segment is flagged half-erased until a completed Erase wipes it.
func (a *Array) halfErase(s *segment) {
	for i := range s.state {
		s.state[i] = Torn
		s.owner[i] = NoPage
	}
	s.free = 0
	s.live = 0
	s.invalid = 0
	s.torn = a.geo.PagesPerSegment
	s.halfErased = true
	if !a.dataless && s.data != nil {
		rng := sim.NewRNG(a.tearSeed())
		for i := range s.data {
			s.data[i] |= byte(rng.Uint64()) // erasing can only raise bits
		}
	}
}

// TearInFlight tears a Valid page whose program was still physically
// in flight when the power failed. The eager simulation programs flush
// targets at schedule time while their timed steps are still queued;
// when an external power failure (CrashPowerCycle) interrupts those
// steps, the controller calls this to put the page into the state the
// hardware would actually hold. seed scrambles which bits made it.
func (a *Array) TearInFlight(ppn uint32, seed uint64) {
	seg, page := a.checkPPN(ppn)
	s := &a.segs[seg]
	if s.state[page] != Valid {
		panic(fmt.Sprintf("flash: tearing %s page %d", s.state[page], ppn))
	}
	s.state[page] = Torn
	s.owner[page] = NoPage
	s.live--
	s.torn++
	if !a.dataless && s.data != nil {
		rng := sim.NewRNG(seed)
		dst := s.data[page*a.geo.PageSize : (page+1)*a.geo.PageSize]
		// Past the interruption point nothing was programmed yet.
		n := rng.Intn(len(dst))
		dst[n] |= ^byte(rng.Uint64())
		for i := n + 1; i < len(dst); i++ {
			dst[i] = 0xFF
		}
	}
}

// Quarantine retires a Torn page to Invalid. Recovery calls it once a
// torn page's contents are known to be superseded (the data is safe in
// SRAM or in the old, still-valid Flash copy); like any Invalid page,
// the space comes back at the next segment erase.
func (a *Array) Quarantine(ppn uint32) {
	seg, page := a.checkPPN(ppn)
	s := &a.segs[seg]
	if s.state[page] != Torn {
		panic(fmt.Sprintf("flash: quarantining %s page %d", s.state[page], ppn))
	}
	s.state[page] = Invalid
	s.owner[page] = NoPage
	s.torn--
	s.invalid++
}

// SegmentTorn returns the number of Torn pages in a segment.
func (a *Array) SegmentTorn(seg int) int { return a.segs[seg].torn }

// HalfErased reports whether a segment's last erase was interrupted.
func (a *Array) HalfErased(seg int) bool { return a.segs[seg].halfErased }

// tearSeed derives a deterministic scramble seed for torn contents.
func (a *Array) tearSeed() uint64 {
	if a.inj != nil {
		return a.inj.TearSeed()
	}
	return uint64(a.programs)*0x9e3779b97f4a7c15 + uint64(a.erases)
}

// SegmentCounts returns the free, live, and invalid page counts of a
// segment.
func (a *Array) SegmentCounts(seg int) (free, live, invalid int) {
	s := &a.segs[seg]
	return s.free, s.live, s.invalid
}

// Utilization returns the fraction of a segment's pages holding live
// data, the quantity the cleaning cost formula (§4.1) depends on.
func (a *Array) Utilization(seg int) float64 {
	return float64(a.segs[seg].live) / float64(a.geo.PagesPerSegment)
}

// EraseCount returns the program/erase cycles a segment has consumed.
func (a *Array) EraseCount(seg int) int64 { return a.segs[seg].erases }

// Programs returns the total page program operations performed.
func (a *Array) Programs() int64 { return a.programs }

// ProgramBytes returns the bytes actually programmed across all
// program operations: PageSize per full-page program, the used prefix
// per partial-page unit program.
func (a *Array) ProgramBytes() int64 { return a.programBytes }

// LivePages iterates a segment's Valid pages in physical order,
// calling fn with the page index within the segment and the logical
// owner. Cleaning preserves this order (§4.3: "the order of the pages
// is maintained"), which the locality-gathering policy exploits.
func (a *Array) LivePages(seg int, fn func(page int, logical uint32)) {
	s := &a.segs[seg]
	for i, st := range s.state {
		if st == Valid {
			fn(i, s.owner[i])
		}
	}
}

// TotalErases returns the erase operations performed on the array,
// tracked independently of the per-segment cycle counters (which must
// sum to the same value — an invariant checked by internal/invariant).
func (a *Array) TotalErases() int64 { return a.erases }

// WearSpread returns the minimum and maximum per-segment erase counts,
// whose difference the wear leveler keeps bounded (§4.3: swap when the
// oldest segment is >100 cycles older than the youngest).
func (a *Array) WearSpread() (min, max int64) {
	min, max = a.segs[0].erases, a.segs[0].erases
	for i := range a.segs {
		e := a.segs[i].erases
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}
