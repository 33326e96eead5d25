package envy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/fault"
	"envy/internal/flash"
	"envy/internal/host"
	"envy/internal/maptier"
	"envy/internal/recovery"
	"envy/internal/sim"
	"envy/internal/stats"
)

// ErrPowerFailure identifies a simulated power failure:
// errors.Is(err, ErrPowerFailure) is true for the error returned by the
// operation a crash interrupted, whichever crash point fired.
var ErrPowerFailure = fault.ErrPowerFailure

// ErrCrashed is returned by operations attempted between a power
// failure and the Recover call that repairs the device.
var ErrCrashed = core.ErrCrashed

// AccessError is the rejection returned by the *Err access methods for
// an address or range the device cannot serve — out of range, or a
// word access straddling a page boundary. A rejected access charges no
// simulated time and changes no state.
type AccessError = core.AccessError

// Policy selects the Flash cleaning policy (§4 of the paper).
type Policy int

// Cleaning policies. HybridPolicy with PartitionSegments=1 is pure
// locality gathering (§4.3); with PartitionSegments equal to the
// segment count it degenerates to FIFO. GreedyPolicy always cleans the
// most-invalidated segment (§4.2).
const (
	HybridPolicy Policy = iota
	GreedyPolicy
)

func (p Policy) String() string {
	switch p {
	case HybridPolicy:
		return "hybrid"
	case GreedyPolicy:
		return "greedy"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// FlushPolicy selects how the write-back path drains dirty SRAM frames
// to Flash (Config.FlushPolicy).
type FlushPolicy int

const (
	// FullPageFlush is the paper's write-back: every drained frame
	// programs a full Flash page. The default.
	FullPageFlush FlushPolicy = iota

	// DiffFlush enables page-differential logging: a drained frame with
	// a small dirty span appends a diff record — packed with records
	// from other frames into one shared program unit — to a per-page
	// chain over an unchanged base copy. Reads of a chained page merge
	// base and overlapping records; cleaning consolidates chains into
	// fresh full copies; a chain at Config.DiffMaxChain records is
	// promoted back to a full-page flush.
	DiffFlush
)

func (p FlushPolicy) String() string {
	switch p {
	case FullPageFlush:
		return "full-page"
	case DiffFlush:
		return "diff"
	}
	return fmt.Sprintf("FlushPolicy(%d)", int(p))
}

// Config describes an eNVy device. Zero fields take the paper's
// defaults (Figure 12) scaled to the geometry.
type Config struct {
	// Physical organization: Segments independently erasable segments
	// of PagesPerSegment pages of PageSize bytes, striped over Banks
	// banks of byte-wide chips.
	PageSize        int
	PagesPerSegment int
	Segments        int
	Banks           int

	// Policy and its partition size (16 in the paper).
	Policy            Policy
	PartitionSegments int

	// WearThreshold triggers a wear-leveling swap when the most-cycled
	// segment exceeds the least-cycled by this many erases (100 in
	// §4.3; 0 disables wear leveling).
	WearThreshold int64

	// UtilizationTarget caps live data as a fraction of the array
	// (default 0.8, §4.1).
	UtilizationTarget float64

	// BufferPages is the battery-backed SRAM write buffer capacity
	// (default: one segment's worth of pages, §5.1).
	BufferPages int

	// MMUEntries sizes the translation cache (default 4096; -1
	// disables it).
	MMUEntries int

	// ParallelFlush enables the §6 extension: up to this many
	// concurrent bank programs/erases (default 1 = off).
	ParallelFlush int

	// HostQueueDepth is how many host requests may be outstanding at
	// once through the Submit interface (default 1, the paper's
	// single-outstanding model, §5.1). Above 1 the device runs in
	// multi-outstanding mode: queued requests reorder within the
	// ordering constraints (reads may pass reads; a write to a page
	// fences all later accesses touching it), writes blocked on a full
	// buffer defer behind serviceable reads, and a host access suspends
	// only the Flash bank it touches instead of the whole controller.
	// The synchronous access methods are unaffected.
	HostQueueDepth int

	// AdaptiveDepth enables the host-queue depth controller: the engine
	// throttles its effective admission depth within [1, HostQueueDepth]
	// against the observed background-operation suspension rate (§3.4
	// churn — the reason a depth-16 queue loses to depth 4 at
	// saturation). Deterministic: the controller reads only simulated
	// state. Default off.
	AdaptiveDepth bool

	// MapTier, if non-nil, enables the two-tier page table: a
	// fixed-budget SRAM cache of mapping pages over a flash-resident
	// mapping table behind a small battery-backed directory, breaking
	// the flat table's SRAM capacity cap (6 bytes of battery-backed
	// SRAM per logical page). Translation costs change — an MMU miss
	// that also misses the mapping cache pays a Flash read — and
	// mapping-page writebacks, cleans, and erases run as background
	// operations. nil (the default) keeps the flat SRAM table and is
	// bit-identical to builds without the tier.
	MapTier *MapTierConfig

	// FlushPolicy selects the write-back path: FullPageFlush (the
	// default, the paper's full-page programs, bit-identical to builds
	// without the policy layer) or DiffFlush (page-differential
	// logging).
	FlushPolicy FlushPolicy

	// DiffMaxChain bounds a page's diff chain under DiffFlush: once a
	// chain holds this many records the next drain promotes the page to
	// a full-page flush that supersedes base and chain (default 3).
	DiffMaxChain int

	// Dataless drops page payload storage for timing-only studies;
	// reads return zeros.
	Dataless bool

	// FaultPlan, if non-nil, arms a crash-point injector at
	// construction (equivalent to ArmFault after New): the device
	// suffers a simulated power failure at the planned point and stays
	// down until Recover.
	FaultPlan *FaultPlan
}

// MapTierConfig tunes the two-tier page table (Config.MapTier). The
// zero value of each field selects a default.
type MapTierConfig struct {
	// CacheFrames is the SRAM mapping-page cache budget, in mapping
	// pages (default 64, minimum 8). Each frame holds one mapping page
	// (PageSize bytes) of packed table entries.
	CacheFrames int

	// SegmentPages is the translation-segment (erase unit) size in
	// pages (default 256).
	SegmentPages int

	// HighWater is the dirty-frame fraction of the cache that starts
	// the background writeback drain (default 0.5); LowWater is where
	// draining stops (default 0.25).
	HighWater, LowWater float64
}

// FaultPlan describes when a simulated power failure strikes. The zero
// plan never fires; if several triggers are set, whichever is reached
// first wins. Counts are 1-based: Program=1 crashes the very next
// Flash page program.
type FaultPlan struct {
	// Program, Erase, and Retarget crash at the Nth Flash page
	// program, the Nth segment erase, or the Nth copy-on-write
	// retarget window (the §3.1 instant between page-table update and
	// old-copy invalidation).
	Program  int64
	Erase    int64
	Retarget int64

	// Merge crashes at the Nth multi-lane merge boundary: several
	// background operations complete at the same simulated instant and
	// the power fails between their completion callbacks, leaving the
	// window's effects partially merged — the earlier operations'
	// completions applied, the later ones still in flight and torn.
	Merge int64

	// At crashes at the first crash point reached once the simulated
	// clock passes this time.
	At time.Duration

	// Probability fires each crash point independently with this
	// probability (seeded by Seed).
	Probability float64

	// Seed makes the injected crash reproducible: it drives the
	// probabilistic trigger and the shape of torn page contents.
	Seed uint64
}

func (p FaultPlan) plan() fault.Plan {
	return fault.Plan{
		Program:     p.Program,
		Erase:       p.Erase,
		Retarget:    p.Retarget,
		Merge:       p.Merge,
		At:          sim.Duration(p.At),
		Probability: p.Probability,
		Seed:        p.Seed,
	}
}

// PaperConfig returns the configuration simulated in the paper
// (Figure 12): 2 GB of Flash in 128 segments of 16 MB across 8 banks,
// 256-byte pages, a 16 MB write buffer, hybrid cleaning with
// 16-segment partitions, and 100-cycle wear leveling.
//
// A device at this scale with payload storage allocates up to ~2 GB of
// host memory (lazily, per segment); set Dataless for timing-only use.
func PaperConfig() Config {
	return Config{
		PageSize:          256,
		PagesPerSegment:   64 * 1024,
		Segments:          128,
		Banks:             8,
		Policy:            HybridPolicy,
		PartitionSegments: 16,
		WearThreshold:     100,
	}
}

// SmallConfig returns a laptop-friendly profile with the same shape as
// the paper system — 128 segments, 8 banks, 256-byte pages, hybrid-16
// cleaning — at 1/256 the capacity (8 MB).
func SmallConfig() Config {
	return Config{
		PageSize:          256,
		PagesPerSegment:   256,
		Segments:          128,
		Banks:             8,
		Policy:            HybridPolicy,
		PartitionSegments: 16,
		WearThreshold:     100,
		// At full scale the one-segment default buffer is 16 MB and
		// absorbs a 50 ms erase's worth of write traffic; a scaled
		// device needs proportionally more than one (small) segment.
		BufferPages: 2048,
	}
}

func (c Config) coreConfig() core.Config {
	kind := cleaner.Hybrid
	if c.Policy == GreedyPolicy {
		kind = cleaner.Greedy
	}
	cc := core.Config{
		Geometry: flash.Geometry{
			PageSize:        c.PageSize,
			PagesPerSegment: c.PagesPerSegment,
			Segments:        c.Segments,
			Banks:           c.Banks,
		},
		Cleaning: cleaner.Config{
			Kind:              kind,
			PartitionSegments: c.PartitionSegments,
			WearThreshold:     c.WearThreshold,
		},
		UtilizationTarget: c.UtilizationTarget,
		BufferPages:       c.BufferPages,
		MMUEntries:        c.MMUEntries,
		ParallelFlush:     c.ParallelFlush,
		Dataless:          c.Dataless,
		DiffMaxChain:      c.DiffMaxChain,
		FlushPolicy:       core.FlushPolicyKind(c.FlushPolicy),
	}
	if c.MapTier != nil {
		cc.MapTier = &maptier.Params{
			CacheFrames:  c.MapTier.CacheFrames,
			SegmentPages: c.MapTier.SegmentPages,
			HighWater:    c.MapTier.HighWater,
			LowWater:     c.MapTier.LowWater,
		}
	}
	if c.FaultPlan != nil {
		p := c.FaultPlan.plan()
		cc.FaultPlan = &p
	}
	return cc
}

// Device is a simulated eNVy storage system: a flat, persistent,
// byte-addressable memory.
//
// # Concurrency
//
// All Device methods are safe for concurrent use: one mutex serializes
// them, which models the hardware faithfully — the host memory bus
// admits a single access at a time. The memory model this buys the
// host is sequential consistency over device operations: concurrent
// calls execute in some single total order, each call observes every
// effect of the calls ordered before it, and a call's return
// happens-before (in the Go sense) the start of whichever call the
// mutex admits next. Aggregate operations (Read, Write, Stats,
// Recover) are atomic as a whole: no other caller's access interleaves
// inside them.
//
// The transaction (§6) is device-wide state, not per-caller — exactly
// one may be open at a time, and Begin/Commit/Rollback from different
// goroutines act on that one transaction. Callers that mix
// transactional and plain writes concurrently must coordinate
// ownership of the transaction themselves, or unrelated writes will be
// captured by (and roll back with) someone else's transaction.
//
// # Asynchronous requests
//
// Submit enqueues a Request into the bounded host queue
// (Config.HostQueueDepth slots) and returns without servicing it;
// completion is observed through Wait, the request's Done channel, or
// an OnComplete callback. Request validation happens outside the
// device mutex (it reads only immutable geometry). The synchronous
// access methods bypass the queue: they execute immediately, ahead of
// anything queued, so callers that need ordering against in-flight
// requests should Drain (or Wait) first.
//
// The request path allocates nothing in steady state: a request's
// Done channel is made only if Done is called before completion (one
// shared closed channel answers every later call), and SubmitAll
// gathers its batch in a slice the device keeps. Done never takes the
// device mutex, so it does not wait behind another goroutine's call.
//
// Core bypasses the mutex; see its doc.
type Device struct {
	mu  sync.Mutex
	d   *core.Device
	eng *host.Engine

	// inners is SubmitAll's batch workspace, guarded by mu and emptied
	// after each call so that it retains no request.
	inners []*host.Request
}

// New builds a device. Missing Config fields default to the paper's
// parameters.
func New(cfg Config) (*Device, error) {
	if cfg.HostQueueDepth < 0 {
		return nil, fmt.Errorf("envy: HostQueueDepth %d must be at least 1", cfg.HostQueueDepth)
	}
	d, err := core.New(cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	depth := cfg.HostQueueDepth
	if depth == 0 {
		depth = 1
	}
	d.SetHostConcurrency(depth)
	eng := host.New(d, depth, d.Geometry().PageSize)
	if cfg.AdaptiveDepth {
		eng.EnableAdaptive()
	}
	return &Device{d: d, eng: eng}, nil
}

// Size returns the logical capacity in bytes (80% of the physical
// array by default).
func (dev *Device) Size() int64 {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.Size()
}

// Now returns the current simulated time since device start.
func (dev *Device) Now() time.Duration {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return time.Duration(dev.d.Now())
}

// Idle advances the simulated clock by d with the host idle, letting
// background flushing, cleaning, and erasing make progress. Queued
// requests are serviced first: an idle host drains its queue.
func (dev *Device) Idle(d time.Duration) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	target := dev.d.Now().Add(sim.Duration(d))
	dev.eng.RunUntil(target)
	dev.d.AdvanceTo(target)
}

// Request is one asynchronous host access, issued with Submit and
// completed through Wait, Done, or OnComplete. The caller fills Write,
// Addr, Data (and optionally OnComplete); the device fills the rest at
// completion. A Request is single-use: resubmitting one is an error.
type Request struct {
	Write bool
	Addr  uint64
	Data  []byte // read destination or write payload

	// OnComplete, if non-nil, runs when the request completes, inside
	// the device-driving call (Submit, Wait, Drain, or Idle of whichever
	// goroutine's turn advanced the clock) and before Done is closed. It
	// must not call back into the Device.
	OnComplete func(*Request)

	// Owner is an opaque back-pointer for a layer that embeds the
	// request in its own type: one static OnComplete func recovers the
	// owner from it instead of allocating a closure per request. The
	// device never reads it.
	Owner any

	// Completion-filled fields, valid once Wait returns or Done is
	// closed: timestamps on the simulated clock (offsets from device
	// start), the sojourn latency (Completion − Arrival, queueing and
	// stalls included) and the access outcome.
	Arrival    time.Duration
	Start      time.Duration
	Completion time.Duration
	Latency    time.Duration
	Err        error

	// inner is the host-level request, held by value and completed
	// through complete via its Owner back-pointer. dev is the device
	// the request was submitted to and doubles as the submitted marker
	// (non-nil from a successful prepare on). done holds the Done
	// channel once there is one (a chan struct{}): made by the first
	// Done call before completion and closed by complete, or closedDone
	// when completion came first. Both sides publish it by
	// compare-and-swap, which is what lets Done run without the device
	// mutex.
	inner host.Request
	dev   *Device
	done  atomic.Value
}

// closedDone is the Done channel of every request that completed
// before anyone asked for one.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done returns a channel closed when the request completes; the
// completion-filled fields are visible to any goroutine that observes
// the close. It returns nil before Submit, and the same channel on
// every call after it. Done never blocks: the channel is made on the
// first call before completion, and a request nobody asked about
// completes without one.
func (r *Request) Done() <-chan struct{} {
	if r.dev == nil {
		return nil
	}
	if d, ok := r.done.Load().(chan struct{}); ok {
		return d
	}
	d := make(chan struct{})
	if r.done.CompareAndSwap(nil, d) {
		return d
	}
	return r.done.Load().(chan struct{}) // completion or a racing Done won
}

// Submit validates r and enqueues it into the bounded host queue,
// usually without servicing it — completion is observed through Wait,
// Done, or OnComplete, and arrives when some later device call (Submit,
// Wait, Drain, Idle) advances the simulation far enough. If the queue
// is at capacity, Submit back-pressures: it blocks (in simulated time)
// servicing requests until a slot frees.
//
// Validation runs before the device mutex is taken. A rejected request
// charges no simulated time.
//
// At HostQueueDepth 1 the queue degenerates to the paper's
// single-outstanding host: Submit services r synchronously and is
// bit-identical to the corresponding *Err method.
func (dev *Device) Submit(r *Request) error {
	if err := dev.prepare(r); err != nil {
		return err
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.eng.Submit(&r.inner)
	return nil
}

// SubmitAll validates every request, then enqueues the batch under one
// device-mutex acquisition. Either the whole batch is accepted or none
// of it: the first validation failure returns its error with no
// request enqueued (the already-prepared prefix is unwound and may be
// resubmitted). Queue-capacity back-pressure behaves as in Submit,
// applied as the batch is absorbed.
func (dev *Device) SubmitAll(rs ...*Request) error {
	for i, r := range rs {
		if err := dev.prepare(r); err != nil {
			for _, p := range rs[:i] {
				p.dev = nil
			}
			return err
		}
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	inners := dev.inners[:0]
	for _, r := range rs {
		inners = append(inners, &r.inner)
	}
	dev.eng.SubmitAll(inners...)
	clear(inners)
	dev.inners = inners[:0]
	return nil
}

// prepare validates r and builds its host-level request. It runs
// before the device mutex is taken: CheckRange reads only immutable
// geometry.
func (dev *Device) prepare(r *Request) error {
	if r.dev != nil {
		return fmt.Errorf("envy: Request resubmitted; requests are single-use")
	}
	if err := dev.d.CheckRange(r.Addr, len(r.Data)); err != nil {
		return err
	}
	r.inner = host.Request{Write: r.Write, Addr: r.Addr, Data: r.Data, OnComplete: complete, Owner: r}
	r.dev = dev
	return nil
}

// complete is every Request's host-level completion callback: it
// copies the outcome into the public fields, runs the caller's
// OnComplete and closes the channel a Done call made, if any; otherwise
// every later Done call gets closedDone.
func complete(h *host.Request) {
	r := h.Owner.(*Request)
	r.Arrival = time.Duration(h.Arrival)
	r.Start = time.Duration(h.Start)
	r.Completion = time.Duration(h.Completion)
	r.Latency = time.Duration(h.Latency())
	r.Err = h.Err
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
	if !r.done.CompareAndSwap(nil, closedDone) {
		close(r.done.Load().(chan struct{}))
	}
}

// Wait drives the simulation until r completes and returns its access
// outcome, or an error if r was never submitted to dev. Completion
// runs under the device mutex, so r is complete once Wait holds it and
// finds r.inner completed.
func (dev *Device) Wait(r *Request) error {
	if r.dev == nil {
		return fmt.Errorf("envy: Wait on a request that was never submitted")
	}
	if r.dev != dev {
		return fmt.Errorf("envy: Wait on a request submitted to another device")
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if !r.inner.Completed() {
		dev.eng.ServeUntilDone(&r.inner)
	}
	return r.Err
}

// Drain services every outstanding request, blocked writes included,
// and returns once the host queue is empty.
func (dev *Device) Drain() {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.eng.Drain()
}

// Outstanding returns the number of submitted, not-yet-completed
// requests.
func (dev *Device) Outstanding() int {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.eng.Outstanding()
}

// EffectiveDepth returns the host queue depth currently admitted by
// the AIMD controller (the configured depth when AdaptiveDepth is
// off). A service tier uses Outstanding() >= EffectiveDepth() as the
// per-device back-pressure signal.
func (dev *Device) EffectiveDepth() int {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.eng.EffectiveDepth()
}

// ReadWord reads the 32-bit word at a 4-byte-aligned address and
// returns it with the host-observed latency.
func (dev *Device) ReadWord(addr uint64) (uint32, time.Duration) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	v, lat := dev.d.ReadWord(addr)
	return v, time.Duration(lat)
}

// WriteWord stores a 32-bit word and returns the host-observed latency.
func (dev *Device) WriteWord(addr uint64, v uint32) time.Duration {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return time.Duration(dev.d.WriteWord(addr, v))
}

// Read fills p from addr and returns the cumulative latency. On the
// simulated clock that is one word-sized host access per 32-bit word
// (§1); the simulator itself services each page's words in runs (see
// DESIGN.md §15), with results identical to a word-at-a-time walk. An
// out-of-range access panics, as a wild pointer through a real memory
// bus would fault; hosts that cannot trust their addresses should use
// ReadErr.
func (dev *Device) Read(p []byte, addr uint64) time.Duration {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return time.Duration(dev.d.Read(p, addr))
}

// ReadErr is Read with the address range validated up front: an
// out-of-range access returns an error instead of panicking, with no
// time charged and no state changed.
func (dev *Device) ReadErr(p []byte, addr uint64) (time.Duration, error) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	lat, err := dev.d.ReadErr(p, addr)
	return time.Duration(lat), err
}

// Write stores p at addr and returns the cumulative latency — in
// simulated time one word-sized host access per 32-bit word, as Read.
// An out-of-range access panics; see Read.
func (dev *Device) Write(p []byte, addr uint64) time.Duration {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return time.Duration(dev.d.Write(p, addr))
}

// WriteErr is Write with the address range validated up front,
// returning an error instead of panicking on an out-of-range access.
func (dev *Device) WriteErr(p []byte, addr uint64) (time.Duration, error) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	lat, err := dev.d.WriteErr(p, addr)
	return time.Duration(lat), err
}

// ReadWordErr is ReadWord with the address validated up front: an
// out-of-range or page-straddling access returns an error instead of
// panicking.
func (dev *Device) ReadWordErr(addr uint64) (uint32, time.Duration, error) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	v, lat, err := dev.d.ReadWordErr(addr)
	return v, time.Duration(lat), err
}

// WriteWordErr is WriteWord with the address validated up front,
// returning an error instead of panicking.
func (dev *Device) WriteWordErr(addr uint64, v uint32) (time.Duration, error) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	lat, err := dev.d.WriteWordErr(addr, v)
	return time.Duration(lat), err
}

// Preload installs initial contents directly into Flash, bypassing the
// write buffer and the simulated clock (a restore/format pass).
func (dev *Device) Preload(data []byte, addr uint64) error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.Preload(data, addr)
}

// PowerCycle simulates a *clean* power failure and recovery: no
// operation is in flight, all data and mapping state survive (Flash +
// battery-backed SRAM), and only the volatile translation cache is
// lost. To model a failure that interrupts work mid-operation, use
// ArmFault or CrashPowerCycle followed by Recover.
func (dev *Device) PowerCycle() {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.d.PowerCycle()
}

// ArmFault installs a one-shot crash-point injector executing plan,
// replacing any previous one. When a planned point is reached, the
// device suffers a power failure exactly there — a partially
// programmed page, a half-erased segment, or an un-invalidated old
// copy — and every operation fails with ErrCrashed until Recover.
func (dev *Device) ArmFault(plan FaultPlan) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.d.ArmFault(plan.plan())
}

// DisarmFault removes the armed fault plan, if any.
func (dev *Device) DisarmFault() {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.d.DisarmFault()
}

// Crashed reports whether the device is down after a simulated power
// failure and needs Recover.
func (dev *Device) Crashed() bool {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.Crashed()
}

// CrashPowerCycle forces a power failure right now, regardless of any
// armed plan — the external switch-flip. Anything in flight (an
// in-flight flush program, queued background work) is interrupted the
// way a real power loss would leave it.
func (dev *Device) CrashPowerCycle() {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.d.CrashPowerCycle()
}

// RecoveryReport summarizes what a Recover call found and repaired.
type RecoveryReport struct {
	// FlushesDiscarded in-flight flush programs were discarded (the
	// buffered SRAM copy remains current); StrayFlushes frames were
	// reset whose flush had not chosen a target yet.
	FlushesDiscarded int
	StrayFlushes     int

	// DiffUnitsDiscarded in-flight shared diff-unit programs were
	// discarded (every member frame remains current, dirty span
	// retained); DiffEntriesDropped unclaimed diff-chain entries were
	// dropped (Config.FlushPolicy DiffFlush only).
	DiffUnitsDiscarded int
	DiffEntriesDropped int

	// HalfErased segments had their interrupted erase run again.
	HalfErased int

	// CleanFinished / WearSwapFinished report an interrupted segment
	// clean or wear swap that recovery ran to completion.
	CleanFinished    bool
	WearSwapFinished bool

	// TornQuarantined partially programmed pages were retired;
	// Orphans un-invalidated old copies were reclaimed.
	TornQuarantined int
	Orphans         int

	// MountWearSwaps wear-leveling swaps ran at mount to bring the
	// wear spread back within bound.
	MountWearSwaps int

	// RolledBackPages of an open transaction were restored to their
	// pre-transaction contents.
	RolledBackPages int

	// Two-tier page table repairs (Config.MapTier only): discarded
	// in-flight mapping-page writebacks, a translation-segment clean
	// finished from its intent (and how many mapping pages it still
	// copied), re-erased half-erased translation segments, quarantined
	// torn mapping-page programs, and swept orphan copies.
	MapWritebacksDiscarded int
	MapCleanFinished       bool
	MapCleanCopies         int
	MapHalfErased          int
	MapTornQuarantined     int
	MapOrphans             int
}

// Recover mounts a crashed device: every crash artifact is repaired
// from battery-backed state plus a Flash scan, an open transaction is
// rolled back, and the full invariant suite must pass before the
// device returns to service. Every write acknowledged before the
// crash is durable; no torn or uncommitted data is readable after.
func (dev *Device) Recover() (RecoveryReport, error) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	r, err := recovery.Recover(dev.d)
	return RecoveryReport{
		FlushesDiscarded: r.FlushesDiscarded,
		StrayFlushes:     r.StrayFlushes,

		DiffUnitsDiscarded: r.DiffUnitsDiscarded,
		DiffEntriesDropped: r.DiffEntriesDropped,
		HalfErased:         r.HalfErased,
		CleanFinished:      r.CleanFinished,
		WearSwapFinished:   r.WearSwapFinished,
		TornQuarantined:    r.TornQuarantined,
		Orphans:            r.Orphans,
		MountWearSwaps:     r.MountWearSwaps,
		RolledBackPages:    r.RolledBackPages,

		MapWritebacksDiscarded: r.MapTier.InflightDiscarded,
		MapCleanFinished:       r.MapTier.CleanFinished,
		MapCleanCopies:         r.MapTier.CleanCopies,
		MapHalfErased:          r.MapTier.HalfErased,
		MapTornQuarantined:     r.MapTier.TornQuarantined,
		MapOrphans:             r.MapTier.Orphans,
	}, err
}

// Begin opens a hardware atomic transaction (§6). Writes until Commit
// or Rollback keep their pre-transaction versions as shadow copies.
func (dev *Device) Begin() error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.BeginTransaction()
}

// Commit makes the open transaction's writes permanent.
func (dev *Device) Commit() error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.Commit()
}

// Rollback restores every page written during the open transaction.
func (dev *Device) Rollback() error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.Rollback()
}

// Stats is a point-in-time snapshot of the device's measurements.
type Stats struct {
	// Host-observed latency distributions.
	ReadMean, WriteMean time.Duration
	ReadP99, WriteP99   time.Duration
	ReadMax, WriteMax   time.Duration
	Reads, Writes       int64

	// Flash-level operation counts.
	CopyOnWrites  int64
	BufferHits    int64
	Flushes       int64
	CleanCopies   int64
	SegmentCleans int64
	Erases        int64
	WearSwaps     int64

	// CleaningCost is cleaner programs per flushed page (§4.1).
	CleaningCost float64

	// Differential flush policy counters (Config.FlushPolicy DiffFlush;
	// zero under the full-page policy). DiffRecordsWritten counts diff
	// records programmed into shared units, DiffUnitPrograms the unit
	// programs that carried them, DiffMerges base∪chain merges (read
	// misses, copy-on-write, cleaning consolidation), DiffPromotions
	// chains promoted to full-page flushes at the DiffMaxChain bound.
	DiffRecordsWritten int64
	DiffUnitPrograms   int64
	DiffMerges         int64
	DiffPromotions     int64

	// ProgramBytes is the total bytes physically programmed into Flash
	// pages — pages × PageSize under the full-page policy, less under
	// differential logging (the write-amplification numerator).
	ProgramBytes int64

	// Controller time fractions (of total elapsed time, §5.3).
	FracIdle, FracReading, FracWriting    float64
	FracFlushing, FracCleaning, FracErase float64

	// MMUHitRate is the translation cache hit rate.
	MMUHitRate float64

	// Wear spread across segments (erase cycles).
	WearMin, WearMax int64

	// BufferedPages is the current write-buffer occupancy.
	BufferedPages int

	// Host queue measurements (Submit requests only; the synchronous
	// access methods feed the Read*/Write* distributions above).
	// Latencies are sojourn times — completion minus arrival, queueing
	// and stalls included.
	HostRequests                       int64
	HostP50, HostP95, HostP99, HostMax time.Duration
	HostMeanDepth                      float64
	HostMaxDepth                       int

	// HostEffectiveDepth is the admission depth the engine currently
	// back-pressures at: HostQueueDepth normally, the adaptive
	// controller's throttled depth under Config.AdaptiveDepth.
	// HostMinEffectiveDepth is the deepest throttle the controller
	// reached so far — the controller relaxes as churn subsides, so the
	// instantaneous depth alone hides how far it stepped down.
	HostEffectiveDepth    int
	HostMinEffectiveDepth int

	// Deprecated: always 0 — batch dispatch was removed in PR 20. Kept
	// only because the frozen bench/ (bench/metrics.go, host.batches)
	// reads it; the benchmark PR that drops that metric drops this too.
	HostBatches int64

	// FlushCleanOverlap is simulated time during which a flush program
	// and a cleaning copy were progressing concurrently on distinct
	// banks (the §6 cleaner-acceleration overlap).
	FlushCleanOverlap time.Duration

	// Two-tier page table measurements (Config.MapTier; zero when the
	// flat table is in use). MapHits/MapMisses count host translations
	// served from the mapping cache versus fetched from Flash;
	// MapWritebacks and MapSyncWritebacks count background and
	// eviction-forced mapping-page programs; MapCleans/MapCleanCopies/
	// MapErases count translation-segment cleaning activity.
	MapTierEnabled                   bool
	MapHits, MapMisses               int64
	MapHitRate                       float64
	MapFetches                       int64
	MapWritebacks, MapSyncWritebacks int64
	MapCleans, MapCleanCopies        int64
	MapErases                        int64

	// Battery-backed SRAM footprint of the page table: the flat
	// table's bytes (what the baseline needs and what a two-tier
	// device saves), and the two-tier directory + cache bytes (zero
	// when disabled).
	FlatTableBytes    int64
	MapDirectoryBytes int64
	MapCacheBytes     int64

	// Background operation lifecycles, by kind (§3.4 suspend/resume).
	FlushOps     OpCounters
	CleanCopyOps OpCounters
	EraseOps     OpCounters
	WearSwapOps  OpCounters

	// Mapping-page background operations (Config.MapTier): writeback
	// programs, translation-segment clean copies, and erases.
	MapFlushOps OpCounters
	MapCleanOps OpCounters
	MapEraseOps OpCounters
}

// OpCounters is the scheduler's lifecycle accounting for one kind of
// background operation: flush programs, cleaning copies, erases, or
// wear-swap relocations.
type OpCounters struct {
	// Started and Completed count operations enqueued and finished.
	Started   int64
	Completed int64

	// Suspensions and Resumes count how often host accesses preempted
	// operations of this kind mid-flight and how often they picked back
	// up afterwards (each resume pays the §3.4 resume delay).
	Suspensions int64
	Resumes     int64

	// Active is simulated time operations of this kind spent
	// progressing on the chips; Suspended is time spent parked
	// mid-operation waiting for the host to go quiet.
	Active    time.Duration
	Suspended time.Duration
}

func opCounters(c stats.OpCounters) OpCounters {
	return OpCounters{
		Started:     c.Started,
		Completed:   c.Completed,
		Suspensions: c.Suspensions,
		Resumes:     c.Resumes,
		Active:      time.Duration(c.Active),
		Suspended:   time.Duration(c.Suspended),
	}
}

// Stats returns the current measurement snapshot.
func (dev *Device) Stats() Stats {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	c := dev.d.Counters()
	ops := dev.d.OpStats()
	b := dev.d.Breakdown()
	rl, wl := dev.d.ReadLatency(), dev.d.WriteLatency()
	hl := dev.eng.Latency()
	wmin, wmax := dev.d.Array().WearSpread()
	st := Stats{
		ReadMean:              time.Duration(rl.Mean()),
		WriteMean:             time.Duration(wl.Mean()),
		ReadP99:               time.Duration(rl.Percentile(99)),
		WriteP99:              time.Duration(wl.Percentile(99)),
		ReadMax:               time.Duration(rl.Max()),
		WriteMax:              time.Duration(wl.Max()),
		Reads:                 c.HostReads,
		Writes:                c.HostWrites,
		CopyOnWrites:          c.CopyOnWrites,
		BufferHits:            c.BufferHits,
		Flushes:               c.Flushes,
		CleanCopies:           c.CleanCopies,
		SegmentCleans:         c.SegmentCleans,
		Erases:                c.Erases,
		WearSwaps:             c.WearSwaps,
		CleaningCost:          c.CleaningCost(),
		DiffRecordsWritten:    c.DiffRecordsWritten,
		DiffUnitPrograms:      c.DiffUnitPrograms,
		DiffMerges:            c.DiffMerges,
		DiffPromotions:        c.DiffPromotions,
		ProgramBytes:          dev.d.Array().ProgramBytes(),
		FracIdle:              b.Fraction(stats.Idle),
		FracReading:           b.Fraction(stats.Reading),
		FracWriting:           b.Fraction(stats.Writing),
		FracFlushing:          b.Fraction(stats.Flushing),
		FracCleaning:          b.Fraction(stats.Cleaning),
		FracErase:             b.Fraction(stats.Erasing),
		MMUHitRate:            dev.d.MMUHitRate(),
		WearMin:               wmin,
		WearMax:               wmax,
		BufferedPages:         dev.d.BufferLen(),
		HostRequests:          dev.eng.Served(),
		HostP50:               time.Duration(hl.Percentile(50)),
		HostP95:               time.Duration(hl.Percentile(95)),
		HostP99:               time.Duration(hl.Percentile(99)),
		HostMax:               time.Duration(hl.Max()),
		HostMeanDepth:         dev.eng.MeanDepth(),
		HostMaxDepth:          dev.eng.MaxDepth(),
		HostEffectiveDepth:    dev.eng.EffectiveDepth(),
		HostMinEffectiveDepth: dev.eng.MinEffectiveDepth(),
		FlushCleanOverlap:     time.Duration(ops.FlushCleanOverlap()),
		FlushOps:              opCounters(ops.Get(stats.OpFlush)),
		CleanCopyOps:          opCounters(ops.Get(stats.OpCleanCopy)),
		EraseOps:              opCounters(ops.Get(stats.OpErase)),
		WearSwapOps:           opCounters(ops.Get(stats.OpWearSwap)),
		MapFlushOps:           opCounters(ops.Get(stats.OpMapFlush)),
		MapCleanOps:           opCounters(ops.Get(stats.OpMapClean)),
		MapEraseOps:           opCounters(ops.Get(stats.OpMapErase)),
	}
	st.FlatTableBytes = dev.d.PageTable().SRAMBytes()
	if mt := dev.d.MapTier(); mt != nil {
		mc := mt.Counters()
		st.MapTierEnabled = true
		st.MapHits, st.MapMisses = mc.Hits, mc.Misses
		st.MapHitRate = mc.HitRate()
		st.MapFetches = mc.Fetches
		st.MapWritebacks, st.MapSyncWritebacks = mc.Writebacks, mc.SyncWritebacks
		st.MapCleans, st.MapCleanCopies = mc.Cleans, mc.CleanCopies
		st.MapErases = mc.Erases
		st.MapDirectoryBytes = mt.DirectoryBytes()
		st.MapCacheBytes = mt.CacheBytes()
	}
	return st
}

// ResetStats zeroes all measurements (typically after warm-up).
func (dev *Device) ResetStats() {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.d.ResetStats()
	dev.eng.ResetStats()
}

// Close does nothing: the device owns no threads or other resources.
//
// Deprecated: kept only because the frozen bench/ (bench/probes.go,
// bench/workloads.go) calls it; the benchmark PR that drops those
// calls drops this too.
func (dev *Device) Close() {}

// CheckConsistency verifies the device's internal invariants and
// returns the first violation, or nil. Intended for tests and
// validation harnesses.
func (dev *Device) CheckConsistency() error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.d.CheckConsistency()
}

// Core exposes the underlying controller for advanced instrumentation
// (benchmark harnesses inside this module). External users should not
// need it. The core device is NOT protected by the Device mutex:
// callers that mix Core with concurrent Device methods must hold off
// all other goroutines themselves, or races on controller state will
// corrupt the simulation.
func (dev *Device) Core() *core.Device { return dev.d }
