// Package core implements the eNVy memory controller (§3, §5.1): the
// component that presents a large Flash array as a flat, in-place
// updatable, non-volatile memory.
//
// The controller combines the substrates:
//
//   - a page table + MMU translation cache (internal/pagetable) maps
//     the linear logical space to Flash or to the SRAM write buffer;
//   - host writes are absorbed by copy-on-write into battery-backed
//     SRAM (internal/sram), hiding Flash's 4 µs program time;
//   - pages drain from the buffer to Flash in the background, with
//     space made by the cleaning engine (internal/cleaner);
//   - long operations (flush programs, cleaning copies, erases) are
//     suspendable: host accesses preempt them and the controller waits
//     a few microseconds before resuming (§3.4).
//
// Timing is modelled on a single controller timeline in simulated
// nanoseconds. Host accesses are synchronous and have absolute
// priority; background work progresses only in the idle gaps the host
// leaves (Device.AdvanceTo) or while a host write is blocked on a full
// buffer — which is exactly when the paper's write latency jumps from
// 200 ns to several microseconds (§5.4).
package core

import (
	"errors"
	"fmt"
	"sort"

	"envy/internal/cleaner"
	"envy/internal/fault"
	"envy/internal/flash"
	"envy/internal/maptier"
	"envy/internal/pagetable"
	"envy/internal/sched"
	"envy/internal/sim"
	"envy/internal/sram"
	"envy/internal/stats"
)

// ErrCrashed is returned by host operations attempted after a power
// failure and before recovery: a crashed device holds its torn state
// until a mount-time recovery pass (internal/recovery) repairs it.
var ErrCrashed = errors.New("core: device crashed; recovery required")

// Config assembles a Device. The zero value of each field selects the
// paper's parameter (Figure 12) scaled to the chosen geometry.
type Config struct {
	// Geometry is the Flash array organization. Required.
	Geometry flash.Geometry

	// Timing holds the Flash chip timing constants. Zero value selects
	// PaperTiming (100 ns reads, 4 µs programs, 50 ms erases).
	Timing flash.Timing

	// Cleaning selects and tunes the cleaning policy. Kind and
	// PartitionSegments are the interesting knobs; LogicalPages is
	// derived from UtilizationTarget if left zero.
	Cleaning cleaner.Config

	// UtilizationTarget caps live data as a fraction of the physical
	// array (default 0.8; §4.1 keeps 20% free).
	UtilizationTarget float64

	// BufferPages is the SRAM write buffer capacity in page frames.
	// Default: one segment's worth, as in §5.1.
	BufferPages int

	// FlushHighWater is the buffer occupancy fraction that starts
	// background flushing (default 0.75); FlushLowWater is where
	// draining stops (default 0.25).
	FlushHighWater, FlushLowWater float64

	// MMUEntries sizes the translation cache (default 4096 entries;
	// 0 keeps the default, -1 disables the cache for ablation).
	MMUEntries int

	// BusOverhead is added to every host access for propagation and
	// control-signal generation (§5.1 adds 60 ns).
	BusOverhead sim.Duration

	// PTLookup is the cost of a page-table read on an MMU miss
	// (default 100 ns, one battery-backed SRAM access).
	PTLookup sim.Duration

	// ResumeDelay is how long the controller waits before resuming a
	// suspended long operation (§3.4 "waits a few microseconds";
	// default 2 µs).
	ResumeDelay sim.Duration

	// ParallelFlush models the §6 extension of programming multiple
	// Flash banks concurrently. Values above 1 divide the effective
	// program and erase times: with a backlog of flushes, consecutive
	// target segments stripe across banks, so up to min(ParallelFlush,
	// Banks) operations overlap almost perfectly. Default 1 (off).
	ParallelFlush int

	// MapTier, if non-nil, replaces the flat battery-backed SRAM page
	// table's cost model with the two-tier table (internal/maptier): a
	// fixed-budget SRAM cache of mapping pages over a flash-resident
	// mapping table behind a battery-backed directory. The flat table
	// remains the authoritative truth in both modes; MapTier changes
	// what translation costs and how much SRAM the table needs. nil
	// (the default) keeps the flat-SRAM model and is bit-identical to
	// builds without the tier.
	MapTier *maptier.Params

	// FlushPolicy selects the write-back policy: FullPageFlush (the
	// default — the paper's whole-page drain, bit-identical to builds
	// without the policy layer) or DiffFlush (page-differential
	// logging: dirty spans packed as diff records into shared unit
	// pages).
	FlushPolicy FlushPolicyKind

	// DiffMaxChain bounds a page's diff-chain length under DiffFlush
	// (default 3): a page whose chain is at the bound has its next
	// flush promoted to a full page, which supersedes the chain.
	DiffMaxChain int

	// Dataless disables payload storage (timing-only simulation).
	Dataless bool

	// FaultPlan, if non-nil, arms a one-shot crash-point injector at
	// construction: the device suffers a simulated power failure at the
	// planned point and latches crashed until recovered
	// (internal/recovery). Equivalent to calling ArmFault after New.
	FaultPlan *fault.Plan
}

func (c *Config) setDefaults() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Timing == (flash.Timing{}) {
		c.Timing = flash.PaperTiming()
	}
	if c.UtilizationTarget == 0 {
		c.UtilizationTarget = 0.8
	}
	if c.UtilizationTarget <= 0 || c.UtilizationTarget > 1 {
		return fmt.Errorf("core: UtilizationTarget %v out of (0, 1]", c.UtilizationTarget)
	}
	if c.BufferPages == 0 {
		c.BufferPages = c.Geometry.PagesPerSegment
	}
	if c.FlushHighWater == 0 {
		c.FlushHighWater = 0.75
	}
	if c.FlushLowWater == 0 {
		c.FlushLowWater = 0.25
	}
	if c.FlushLowWater >= c.FlushHighWater {
		return fmt.Errorf("core: FlushLowWater (%v) must be below FlushHighWater (%v)",
			c.FlushLowWater, c.FlushHighWater)
	}
	switch {
	case c.MMUEntries == 0:
		c.MMUEntries = 4096
	case c.MMUEntries < 0:
		c.MMUEntries = 0 // explicit ablation: no translation cache
	}
	if c.BusOverhead == 0 {
		c.BusOverhead = 60 * sim.Nanosecond
	}
	if c.PTLookup == 0 {
		c.PTLookup = 100 * sim.Nanosecond
	}
	if c.ResumeDelay == 0 {
		c.ResumeDelay = 2 * sim.Microsecond
	}
	if c.ParallelFlush == 0 {
		c.ParallelFlush = 1
	}
	if c.ParallelFlush > c.Geometry.Banks {
		c.ParallelFlush = c.Geometry.Banks
	}
	if c.ParallelFlush > 1 && c.Cleaning.Kind == cleaner.Hybrid && c.Cleaning.BankStagger == 0 {
		// Bank-parallel flushing needs flush targets on distinct
		// banks; stagger the partitions' active segments across the
		// array (see cleaner.Config.BankStagger). Single-lane
		// controllers keep the legacy in-phase layout.
		c.Cleaning.BankStagger = c.Geometry.Banks
	}
	if c.Cleaning.Kind == cleaner.Hybrid && c.Cleaning.PartitionSegments == 0 {
		// The paper's simulated system groups 16 segments per
		// partition (§4.4, §5.1).
		c.Cleaning.PartitionSegments = 16
		if max := c.Geometry.Segments - 1; c.Cleaning.PartitionSegments > max {
			c.Cleaning.PartitionSegments = max
		}
	}
	switch c.FlushPolicy {
	case FullPageFlush, DiffFlush:
	default:
		return fmt.Errorf("core: unknown FlushPolicy %d", c.FlushPolicy)
	}
	if c.DiffMaxChain == 0 {
		c.DiffMaxChain = 3
	}
	if c.DiffMaxChain < 0 {
		return fmt.Errorf("core: DiffMaxChain %d must be positive", c.DiffMaxChain)
	}
	if c.Cleaning.LogicalPages == 0 {
		pages := int(c.UtilizationTarget * float64(c.Geometry.Pages()))
		max := (c.Geometry.Segments - 1) * c.Geometry.PagesPerSegment
		if pages > max {
			pages = max
		}
		c.Cleaning.LogicalPages = pages
	}
	return nil
}

// Device is the simulated eNVy storage system. It is not safe for
// concurrent use: the host memory bus serializes accesses.
type Device struct {
	cfg Config
	arr *flash.Array
	buf *sram.Buffer

	table *pagetable.Table
	mmu   *pagetable.MMU
	eng   *cleaner.Engine

	// mt is the two-tier page table (Config.MapTier); nil keeps the
	// flat-SRAM translation cost model.
	mt *maptier.Tier

	now sim.Time

	counters  stats.Counters
	breakdown stats.Breakdown
	readLat   stats.Latency
	writeLat  stats.Latency
	opStats   stats.OpStats

	// banks tracks which Flash bank each in-flight background operation
	// occupies; sched executes those operations over simulated time.
	banks *flash.BankSet
	sched *sched.Scheduler

	// finishFlushFn is the shared flush-completion callback
	// (Op.DonePage), bound once so the hot path allocates no closure
	// per flush.
	finishFlushFn func(uint32)

	// flushPending counts flush tasks scheduled but not yet expanded
	// into operations.
	flushPending int

	// flushPPN records, for each logical page whose flush is in
	// flight, where its eagerly programmed Flash copy currently lives
	// (the cleaner may relocate it mid-flush).
	flushPPN map[uint32]uint32

	// inflightBank counts, per Flash bank, the in-flight flush programs
	// (flushPPN reservations plus diffInflight units) targeting it — the
	// §6 placement tests read it instead of rescanning both maps per
	// candidate bank. inflightOn maintains it wherever an entry is
	// added, removed or relocated; CheckInflightBanks recounts it.
	inflightBank []int

	// policy is the pluggable write-back expansion (Config.FlushPolicy).
	policy flushPolicy

	// dir is the differential policy's battery-backed base + chain
	// directory; nil under the full-page policy.
	dir *pagetable.DiffDirectory

	// diffInflight records the in-flight shared unit programs, keyed
	// by a stable sequence number (diffSeq) because the cleaner may
	// relocate a unit's physical page mid-program. Battery-backed
	// recovery state, like flushPPN.
	diffInflight map[uint64]*diffUnit
	diffSeq      uint64

	// flushStamp counts host flush programs (full pages and shared
	// units); segStamp holds, per physical segment, the stamp of the
	// last host flush programmed into it. Together they age-gate the
	// diff path (see diffEligible): a base whose segment has left the
	// log head's recent window flushes full-page instead, so stale
	// pages keep migrating forward and segments keep decaying toward
	// empty. nil under the full-page policy.
	flushStamp int64
	segStamp   []int64

	// shadows records the pre-transaction state of pages touched by
	// the open transaction (§6).
	shadows map[uint32]*shadow
	inTxn   bool

	// inj is the armed crash-point injector, if any; crashed latches
	// after a simulated power failure until recovery clears it.
	inj     *fault.Injector
	crashed bool

	// hostConc is the host queue depth the device is driven at. Above 1
	// (the multi-outstanding engine, internal/host) host accesses
	// suspend only the Flash bank they touch; at 1 they park the whole
	// controller, the paper's §3.4 model.
	hostConc int

	// pageScratch is rewriteFlash's page buffer, made on first use.
	pageScratch []byte
}

// New builds a Device from cfg (missing fields defaulted per Fig. 12).
func New(cfg Config) (*Device, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	var opts []flash.Option
	if cfg.Dataless {
		opts = append(opts, flash.Dataless())
	}
	arr, err := flash.New(cfg.Geometry, cfg.Timing, opts...)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:      cfg,
		arr:      arr,
		buf:      sram.NewBuffer(cfg.BufferPages, cfg.Geometry.PageSize, cfg.Dataless),
		table:    pagetable.New(cfg.Cleaning.LogicalPages),
		mmu:      pagetable.NewMMU(cfg.MMUEntries, cfg.PTLookup),
		flushPPN: make(map[uint32]uint32),
		shadows:  make(map[uint32]*shadow),

		inflightBank: make([]int, cfg.Geometry.Banks),
	}
	d.eng, err = cleaner.New(arr, cfg.Cleaning, d.remap, &d.counters)
	if err != nil {
		return nil, err
	}
	d.policy = fullPagePolicy{}
	if cfg.FlushPolicy == DiffFlush {
		d.policy = diffPolicy{}
		d.dir = pagetable.NewDiffDirectory()
		d.diffInflight = make(map[uint64]*diffUnit)
		d.segStamp = make([]int64, cfg.Geometry.Segments)
		d.eng.SetConsolidate(d.consolidateForClean)
	}
	d.banks = flash.NewBankSet(cfg.Geometry.Banks)
	d.finishFlushFn = d.finishFlush
	// One lane reproduces the paper's base controller (one background
	// operation at a time). With ParallelFlush above 1, the banks run
	// autonomously — every bank may host its own program or erase —
	// while ParallelFlush bounds the flush programs in flight (§6).
	lanes := 1
	if cfg.ParallelFlush > 1 {
		lanes = cfg.Geometry.Banks
	}
	d.sched = sched.New(lanes, cfg.ParallelFlush, cfg.ResumeDelay, d.banks, &d.breakdown, &d.opStats, sched.Hooks{
		Expand: d.expandPending,
		Tick: func(t sim.Time) {
			// Time-triggered fault plans watch the background cursor
			// too: an idle device reaches Plan.At here, so the next
			// flash operation (e.g. an expanded flush) crashes.
			if d.inj != nil {
				d.inj.Tick(t)
			}
		},
		Merge: func() {
			// A multi-lane background window is merging (k ≥ 2 ops
			// completing at one instant); an armed fault may bring the
			// power down between the lanes' completion callbacks, with
			// the window's effects partially merged (§9 extended).
			if d.inj != nil && d.inj.AtMerge() {
				panic(&fault.Crash{Point: fault.PointMerge})
			}
		},
	})
	if cfg.MapTier != nil {
		d.mt, err = maptier.New(maptier.Config{
			Params:       *cfg.MapTier,
			LogicalPages: cfg.Cleaning.LogicalPages,
			PageSize:     cfg.Geometry.PageSize,
			Banks:        cfg.Geometry.Banks,
			Timing:       cfg.Timing,
			LookupCost:   cfg.PTLookup,
		}, d.table, d.sched.Enqueue)
		if err != nil {
			return nil, err
		}
	}
	if cfg.FaultPlan != nil {
		d.ArmFault(*cfg.FaultPlan)
	}
	return d, nil
}

// ArmFault installs a one-shot crash-point injector executing plan.
// Arming replaces any previous injector, including a spent one; it does
// not clear a latched crash.
func (d *Device) ArmFault(plan fault.Plan) {
	d.inj = fault.NewInjector(plan)
	d.inj.Tick(d.now)
	d.setArrayInjectors(d.inj)
}

// DisarmFault removes the injector; no further crashes fire.
func (d *Device) DisarmFault() {
	d.inj = nil
	d.setArrayInjectors(nil)
}

// setArrayInjectors installs inj on every Flash region the controller
// owns: the data array and, with MapTier, the translation region —
// mapping-page programs and translation-segment erases are crash
// points like any other.
func (d *Device) setArrayInjectors(inj *fault.Injector) {
	d.arr.SetInjector(inj)
	if d.mt != nil {
		d.mt.Array().SetInjector(inj)
	}
}

// Crashed reports whether the device is down after a simulated power
// failure. Every host operation fails with ErrCrashed until recovery.
func (d *Device) Crashed() bool { return d.crashed }

// catchCrash converts a *fault.Crash panic unwinding through a public
// entry point into the latched crashed state; errp, when non-nil,
// receives the crash as the operation's error.
func (d *Device) catchCrash(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	c, ok := r.(*fault.Crash)
	if !ok {
		// Not a crash: a genuine programming-error trap from a lower
		// layer. Re-panic, keeping its origin.
		if err, isErr := r.(error); isErr {
			panic(err)
		}
		panic(fmt.Errorf("core: unexpected panic: %v", r))
	}
	d.latchCrash()
	if errp != nil {
		*errp = c
	}
}

// latchCrash is the instant the power actually dies. Battery-backed
// state (SRAM buffer, page table, cleaner intent) keeps whatever it
// held; everything in flight stops:
//
//   - queued background operations vanish — their flash mutations
//     already happened eagerly, except the in-flight flush programs,
//     whose reservation targets are torn to the partially-programmed
//     state the chips physically hold;
//   - the volatile MMU translation cache is lost;
//   - the clock stops where the failure happened.
func (d *Device) latchCrash() {
	if d.crashed {
		return
	}
	d.crashed = true
	for _, lpn := range sortedKeys(d.flushPPN) {
		ppn := d.flushPPN[lpn]
		d.arr.TearInFlight(ppn, uint64(d.now)^uint64(ppn)*0x9e3779b97f4a7c15)
	}
	for _, seq := range sortedDiffSeqs(d.diffInflight) {
		ppn := d.diffInflight[seq].ppn
		d.arr.TearInFlight(ppn, uint64(d.now)^uint64(ppn)*0x9e3779b97f4a7c15)
	}
	if d.mt != nil {
		now := d.now
		d.mt.TearInflight(func(ppn uint32) uint64 {
			return uint64(now) ^ uint64(ppn)*0x9e3779b97f4a7c15
		})
	}
	d.resetMMU()
	if c := d.sched.Cursor(); c > d.now {
		d.now = c
	}
	d.sched.Reset(d.now)
	d.flushPending = 0
}

// sortedKeys returns a map's logical-page keys in ascending order, so
// every iteration over battery-backed records is deterministic —
// randomized map order must never influence the simulated outcome.
func sortedKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// CrashPowerCycle forces a power failure right now, independent of any
// armed fault plan — the external switch-flip. In-flight flush
// programs are torn exactly as a mid-program injection would leave
// them. A no-op if the device is already crashed.
func (d *Device) CrashPowerCycle() {
	d.latchCrash()
}

// remap is the cleaner's callback: the live Flash copy of logical at
// oldPPN moved to newPPN. Depending on which copy that was, the update
// goes to the in-flight flush record, the transaction shadow record,
// or the page table.
func (d *Device) remap(logical, oldPPN, newPPN uint32) {
	if logical == flash.DiffOwner {
		// A shared diff-record unit moved: repoint every chain element
		// referencing it — or, mid-program, the in-flight record.
		for _, seq := range sortedDiffSeqs(d.diffInflight) {
			if u := d.diffInflight[seq]; u.ppn == oldPPN {
				d.inflightOn(oldPPN, -1)
				d.inflightOn(newPPN, +1)
				u.ppn = newPPN
				for i := range u.members {
					u.members[i].loc.Unit = newPPN
				}
				return
			}
		}
		d.dir.RelocateUnit(oldPPN, newPPN)
		return
	}
	if ppn, flushing := d.flushPPN[logical]; flushing && ppn == oldPPN {
		d.inflightOn(oldPPN, -1)
		d.inflightOn(newPPN, +1)
		d.flushPPN[logical] = newPPN
		return
	}
	if sh, ok := d.shadows[logical]; ok && sh.hasFlash && sh.ppn == oldPPN {
		sh.ppn = newPPN
		if d.dir != nil {
			if e := d.dir.Entry(logical); e != nil && e.Base == oldPPN {
				d.dir.Rebase(logical, oldPPN, newPPN)
			}
		}
		return
	}
	if loc, ok := d.table.Lookup(logical); ok && !loc.InSRAM && loc.PPN == oldPPN {
		if d.dir != nil {
			if e := d.dir.Entry(logical); e != nil && e.Base == oldPPN {
				d.dir.Rebase(logical, oldPPN, newPPN)
			}
		}
		d.setFlash(logical, newPPN)
		d.tierDrain()
		return
	}
	if d.dir != nil && d.dir.BaseKept(logical, oldPPN) {
		// The directory's kept base moved (the page itself is buffered).
		d.dir.Rebase(logical, oldPPN, newPPN)
		return
	}
	panic(fmt.Sprintf("core: cleaner moved page %d from %d, which no record accounts for", logical, oldPPN))
}

// Geometry returns the device's Flash organization.
func (d *Device) Geometry() flash.Geometry { return d.cfg.Geometry }

// Config returns the resolved configuration.
func (d *Device) Config() Config { return d.cfg }

// Size returns the logical capacity in bytes.
func (d *Device) Size() int64 {
	return int64(d.cfg.Cleaning.LogicalPages) * int64(d.cfg.Geometry.PageSize)
}

// LogicalPages returns the number of logical pages presented.
func (d *Device) LogicalPages() int { return d.cfg.Cleaning.LogicalPages }

// Now returns the current simulated time.
func (d *Device) Now() sim.Time { return d.now }

// Counters returns a copy of the operation counters.
func (d *Device) Counters() stats.Counters { return d.counters }

// Breakdown returns a copy of the controller time breakdown (§5.3).
func (d *Device) Breakdown() stats.Breakdown { return d.breakdown }

// ReadLatency and WriteLatency expose the host-observed latency
// distributions (Figure 15).
func (d *Device) ReadLatency() *stats.Latency  { return &d.readLat }
func (d *Device) WriteLatency() *stats.Latency { return &d.writeLat }

// MMUHitRate reports the translation cache hit rate.
func (d *Device) MMUHitRate() float64 { return d.mmu.HitRate() }

// Array exposes the underlying Flash array for inspection (wear
// statistics, utilization).
func (d *Device) Array() *flash.Array { return d.arr }

// BufferLen returns the current write-buffer occupancy in pages.
func (d *Device) BufferLen() int { return d.buf.Len() }

// Engine exposes the cleaning engine for inspection.
func (d *Device) Engine() *cleaner.Engine { return d.eng }

// PageTable exposes the logical-to-physical mapping for inspection
// (invariant checking). Callers must not mutate it: the page table is
// owned by the controller, which keeps it consistent with the Flash
// array and the write buffer.
func (d *Device) PageTable() *pagetable.Table { return d.table }

// Buffer exposes the SRAM write buffer for inspection. Callers must
// not insert or remove frames.
func (d *Device) Buffer() *sram.Buffer { return d.buf }

// FlushTarget returns where an in-flight flush of a logical page is
// programming its Flash copy, if one is in flight.
func (d *Device) FlushTarget(lpn uint32) (ppn uint32, ok bool) {
	ppn, ok = d.flushPPN[lpn]
	return ppn, ok
}

// FlushTargets iterates the in-flight flush reservations (logical page
// and destination physical page) in ascending logical-page order.
func (d *Device) FlushTargets(fn func(lpn, ppn uint32)) {
	for _, lpn := range sortedKeys(d.flushPPN) {
		fn(lpn, d.flushPPN[lpn])
	}
}

// Shadows iterates the open transaction's shadow records — the logical
// page, whether the pre-transaction copy is intact in Flash, and where
// — in ascending logical-page order.
func (d *Device) Shadows(fn func(lpn uint32, hasFlash bool, ppn uint32)) {
	for _, lpn := range sortedKeys(d.shadows) {
		sh := d.shadows[lpn]
		fn(lpn, sh.hasFlash, sh.ppn)
	}
}

// BackgroundCursor returns the point on the timeline up to which
// background work has been simulated. Between host operations it always
// equals Now; the invariant checker asserts exactly that.
func (d *Device) BackgroundCursor() sim.Time { return d.sched.Cursor() }

// Scheduler exposes the background-operation scheduler for inspection
// (invariant checking, per-op accounting). Callers must not enqueue or
// run operations: the schedule is owned by the controller.
func (d *Device) Scheduler() *sched.Scheduler { return d.sched }

// OpStats returns a copy of the per-operation lifecycle counters
// (starts, completions, suspensions, resumes, time in state).
func (d *Device) OpStats() stats.OpStats { return d.opStats }

// ResetStats zeroes counters, latency histograms, per-op lifecycle
// counters and the time breakdown — typically called after warm-up.
func (d *Device) ResetStats() {
	d.counters.Reset()
	d.breakdown.Reset()
	d.readLat.Reset()
	d.writeLat.Reset()
	d.opStats.Reset()
	if d.mt != nil {
		d.mt.ResetCounters()
	}
}

// PowerCycle simulates a power failure and recovery. eNVy's state —
// Flash contents, the battery-backed SRAM buffer and page table, and
// the cleaning state — is persistent (§3.3, §3.4); only the volatile
// MMU translation cache is lost.
func (d *Device) PowerCycle() {
	d.resetMMU()
}

// resetMMU discards the volatile translation cache (power loss).
func (d *Device) resetMMU() {
	d.mmu = pagetable.NewMMU(d.cfg.MMUEntries, d.cfg.PTLookup)
}

// AccessError reports a host access the device rejected before any
// state changed or simulated time passed.
type AccessError struct {
	Addr uint64 // first byte of the rejected access
	Len  int    // access length in bytes
	Size int64  // logical device size

	// Boundary is true when a word access straddles a page boundary
	// (the paper's word-sized host interface cannot split an access);
	// false when the access runs past the end of the device.
	Boundary bool
}

func (e *AccessError) Error() string {
	if e.Boundary {
		return fmt.Sprintf("core: word access at %d+%d crosses a page boundary", e.Addr, e.Len)
	}
	return fmt.Sprintf("core: access at %d+%d beyond device size %d", e.Addr, e.Len, e.Size)
}

func (d *Device) checkAddr(addr uint64, n int) (uint32, error) {
	if addr > uint64(d.Size()) || uint64(n) > uint64(d.Size())-addr {
		return 0, &AccessError{Addr: addr, Len: n, Size: d.Size()}
	}
	return uint32(addr / uint64(d.cfg.Geometry.PageSize)), nil
}

// AdvanceTo idles the host until t, letting background work (flushes,
// cleaning, erases) progress. It is a no-op if t is in the past or the
// device is crashed; a power failure during background work latches
// silently (check Crashed).
func (d *Device) AdvanceTo(t sim.Time) {
	if d.crashed || t <= d.now {
		return
	}
	defer d.catchCrash(nil)
	d.sched.Run(d.now, t)
	d.now = t
}

// translate charges the translation cost of up to max back-to-back
// host accesses to one page — as many as cost the same, see
// pagetable.MMU.TranslateRun — and returns that count with the
// translation latency of each.
func (d *Device) translate(page uint32, max int) (int, sim.Duration) {
	n, cost := d.mmu.TranslateRun(page, max)
	if cost == 0 {
		d.counters.MMUHits += int64(n)
	} else {
		d.counters.MMUMisses++
		if d.mt != nil {
			// Two-tier table: an MMU miss resolves through the mapping
			// cache instead of the flat SRAM table — one SRAM lookup on
			// a cache hit, a mapping-page fetch from Flash (possibly
			// behind an eviction writeback) on a miss.
			cost = d.mt.Access(page)
		}
	}
	return n, d.cfg.BusOverhead + cost
}

// setFlash points a logical page's table entry at a Flash copy,
// refreshes the MMU, and mirrors the change into the mapping tier.
// Every table mutation in the controller goes through this helper or
// its siblings so the tier's mapping pages never drift from the table.
//
// The tier protocol keeps the pair crash-atomic: the mapping page is
// pulled into the cache first (EnsureCached may program Flash to make
// room — crash points — but nothing is mutated yet), then the table
// flips and the battery-backed cache frame absorbs the new word with
// no crash point in between. Writeback pacing (Tier.Drain) runs
// separately, after the enclosing transition completes.
func (d *Device) setFlash(lpn, ppn uint32) {
	d.tierEnsure(lpn)
	d.table.MapFlash(lpn, ppn)
	d.mmu.Update(lpn)
	d.tierUpdate(lpn)
}

// setSRAM points a logical page's table entry into the SRAM write
// buffer (copy-on-write retarget), refreshing the MMU and the tier.
func (d *Device) setSRAM(lpn uint32) {
	d.tierEnsure(lpn)
	d.table.MapSRAM(lpn)
	d.mmu.Update(lpn)
	d.tierUpdate(lpn)
}

// clearMapping unmaps a logical page, dropping its MMU entry and
// mirroring the change into the tier.
func (d *Device) clearMapping(lpn uint32) {
	d.tierEnsure(lpn)
	d.table.Unmap(lpn)
	d.mmu.Invalidate(lpn)
	d.tierUpdate(lpn)
}

// tierEnsure readies the tier for a table mutation (no-op on
// flat-table devices): see setFlash for the protocol.
func (d *Device) tierEnsure(lpn uint32) {
	if d.mt != nil {
		d.mt.EnsureCached(lpn)
	}
}

// tierUpdate mirrors a completed table mutation into the tier's
// cached mapping page. Pure SRAM; never a crash point.
func (d *Device) tierUpdate(lpn uint32) {
	if d.mt != nil {
		d.mt.Update(lpn, d.table.Raw(lpn))
	}
}

// tierDrain lets the tier pace its background writebacks. Called only
// between transitions, where a crash leaves nothing half-flipped.
func (d *Device) tierDrain() {
	if d.mt != nil {
		d.mt.Drain()
	}
}

// MapTier returns the two-tier page table, nil when Config.MapTier is
// off.
func (d *Device) MapTier() *maptier.Tier { return d.mt }

// Suspensions returns the total number of background-operation
// suspensions across all op kinds — the host engine's adaptive depth
// controller reads this as its congestion signal (§3.4 suspend/resume
// churn).
func (d *Device) Suspensions() int64 {
	var n int64
	for k := stats.OpKind(0); k < stats.NumOpKinds; k++ {
		n += d.opStats.Get(k).Suspensions
	}
	return n
}

// ReadWord reads the 32-bit word at the given byte address (which must
// be 4-byte aligned) and returns it with the host-observed latency.
// Out-of-range accesses panic; use ReadWordErr on untrusted addresses.
func (d *Device) ReadWord(addr uint64) (uint32, sim.Duration) {
	v, lat, err := d.ReadWordErr(addr)
	if err != nil {
		panic(err)
	}
	return v, lat
}

// ReadWordErr is ReadWord with the address validated up front: an
// out-of-range or page-straddling access returns an *AccessError
// instead of panicking, with no time charged and no state changed.
func (d *Device) ReadWordErr(addr uint64) (uint32, sim.Duration, error) {
	var buf [4]byte
	lat, err := d.access(false, buf[:], addr)
	if err != nil {
		return 0, 0, err
	}
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24, lat, nil
}

// WriteWord writes a 32-bit word at the given byte address and returns
// the host-observed latency. Out-of-range accesses panic; use
// WriteWordErr on untrusted addresses.
func (d *Device) WriteWord(addr uint64, v uint32) sim.Duration {
	lat, err := d.WriteWordErr(addr, v)
	if err != nil {
		panic(err)
	}
	return lat
}

// WriteWordErr is WriteWord with the address validated up front,
// returning an *AccessError instead of panicking. Under fault
// injection a *fault.Crash return means the power failed mid-write:
// the write is not acknowledged and the device is down until recovery.
func (d *Device) WriteWordErr(addr uint64, v uint32) (sim.Duration, error) {
	buf := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return d.access(true, buf[:], addr)
}

// Read copies len(p) bytes starting at addr into p and returns the
// total latency. On the simulated clock this is one host access per
// 32-bit word (the paper's word-sized interface, §1); see access for
// how the simulator charges them. Accesses may span pages.
// Out-of-range accesses panic; use ReadErr on untrusted addresses.
func (d *Device) Read(p []byte, addr uint64) sim.Duration {
	lat, err := d.ReadErr(p, addr)
	if err != nil {
		panic(err)
	}
	return lat
}

// ReadErr is Read with the address range validated up front: an
// out-of-range access returns an *AccessError instead of panicking,
// with no time charged and no state changed.
func (d *Device) ReadErr(p []byte, addr uint64) (sim.Duration, error) {
	return d.access(false, p, addr)
}

// Write stores p starting at addr — on the simulated clock one 32-bit
// word per host access — and returns the total latency. Out-of-range
// accesses panic; use WriteErr on untrusted addresses.
func (d *Device) Write(p []byte, addr uint64) sim.Duration {
	lat, err := d.WriteErr(p, addr)
	if err != nil {
		panic(err)
	}
	return lat
}

// WriteErr is Write with the address range validated up front,
// returning an *AccessError instead of panicking. A *fault.Crash
// return means the power failed part-way: words written before the
// failure are durable (they reached battery-backed SRAM), the rest
// never happened.
func (d *Device) WriteErr(p []byte, addr uint64) (sim.Duration, error) {
	return d.access(true, p, addr)
}

// wordBytes is the host interface width (§1, §5.1).
const wordBytes = 4

// access is the page-span access kernel behind every host read and
// write. The simulated host issues one access per 32-bit word; the
// simulator does not walk the controller path once per word. The range
// is checked once, the request is cut at page boundaries, and each
// page's words are serviced in runs (readRun, writeRun): a run is the
// longest stretch of words that are provably identical accesses, and is
// accounted in closed form — counters += n, time += n·lat, one copy. A
// single word is the n = 1 case of the same functions.
//
// Words are the 4-byte chunks addr, addr+4, …; a word that straddles a
// page boundary (possible only when addr is misaligned) is rejected
// with a Boundary error after the words before it were serviced. The
// returned latency is the total of the words serviced, also on error.
func (d *Device) access(write bool, p []byte, addr uint64) (total sim.Duration, err error) {
	if _, err := d.checkAddr(addr, len(p)); err != nil {
		return 0, err
	}
	defer d.catchCrash(&err)
	ps := d.cfg.Geometry.PageSize
	for len(p) > 0 {
		if d.crashed {
			return total, ErrCrashed
		}
		page := uint32(addr / uint64(ps))
		off := int(addr % uint64(ps))
		span := len(p)
		if fit := ps - off; span > fit {
			// Whole words only up to the boundary; the request continues
			// on the next page, or stops at a straddling word.
			if span = fit &^ (wordBytes - 1); span == 0 {
				return total, &AccessError{Addr: addr, Len: min(len(p), wordBytes), Size: d.Size(), Boundary: true}
			}
		}
		var lat sim.Duration
		if write {
			span, lat = d.writeRun(page, off, p[:span])
		} else {
			span, lat = d.readRun(page, off, p[:span])
		}
		total += lat
		p = p[span:]
		addr += uint64(span)
	}
	return total, nil
}

// quiescent reports whether a run of back-to-back host accesses can
// retire no background operation and change no scheduler state beyond
// the cursor — the precondition for accounting the run in closed form.
// At host depth 1 accesses only ever Preempt, which never advances an
// op: the run is uniform once the running set is parked. Above 1 they
// Overlap, which does advance ops, so the queue must be empty (nothing
// in a run enqueues: only copy-on-write and background completions do).
func (d *Device) quiescent() bool {
	if d.hostConc > 1 {
		return d.sched.Len() == 0
	}
	return d.sched.Parked()
}

// words is the number of host accesses covering n bytes.
func words(n int) int { return (n + wordBytes - 1) / wordBytes }

// readRun services the longest run of identical word reads at the head
// of p — all of p on the page at off when the controller is quiescent
// and the translation cache holds the page, otherwise one word — and
// returns the bytes consumed and the run's total latency. The address
// was validated by access.
func (d *Device) readRun(page uint32, off int, p []byte) (int, sim.Duration) {
	n := 1
	if d.quiescent() {
		n = words(len(p))
	}
	loc, mapped := d.table.Lookup(page)
	var chain *pagetable.DiffEntry
	if d.dir != nil && mapped && !loc.InSRAM {
		// The guard on loc.PPN keeps a chain suppressed while a
		// full-page flush or transaction has moved the mapping off the
		// base. A chained word's cost depends on which records overlap
		// it, so chained pages are read a word at a time.
		if e := d.dir.Entry(page); e != nil && loc.PPN == e.Base && len(e.Chain) > 0 {
			chain, n = e, 1
		}
	}
	n, lat := d.translate(page, n)
	if len(p) > n*wordBytes {
		p = p[:n*wordBytes]
	}
	bank := -1 // SRAM and unmapped accesses touch no Flash bank
	var src []byte
	switch {
	case !mapped:
		// Never-written memory reads as zeros at Flash read cost.
		lat += d.arr.ReadTime()
	case loc.InSRAM:
		lat += 100 * sim.Nanosecond // battery-backed SRAM access
		if f := d.buf.Lookup(page); f != nil {
			src = f.Data
		}
	default:
		lat += d.arr.ReadTime()
		bank = d.bankOf(loc.PPN)
		src = d.arr.Page(loc.PPN)
	}
	if src != nil {
		copy(p, src[off:])
	} else {
		clear(p)
	}
	if chain != nil {
		// Differential policy read-miss merge: overlay the diff records
		// covering the read window.
		if !d.inTxn && d.buf.Len() < d.highWater() {
			// Read-side consolidation: a chained page the host is
			// reading back is worth a frame — pull the merged image into
			// SRAM exactly as a copy-on-write would, fully dirty, so
			// repeat reads hit SRAM and the next drain programs a full
			// page that supersedes base and chain. The buffer-pressure
			// guard keeps reads from ever blocking on a frame.
			return len(p), d.readInstall(page, bank, lat, p, off)
		}
		lat += d.applyChainWindow(chain, p, off)
	}
	total := sim.Duration(n) * lat
	d.counters.HostReads += int64(n)
	d.completeAccessOn(bank, total, stats.Reading)
	d.readLat.RecordN(lat, int64(n))
	return len(p), total
}

// writeRun services the longest run of identical word writes at the
// head of p and returns the bytes consumed and the run's total latency.
// A write to an unbuffered page is a single access: it executes the
// copy-on-write (§3.1, Figure 3), blocking first if the buffer is full
// until a flush frees a frame — the condition behind Figure 15's
// write-latency jump. Writes to a buffered page, with the controller
// quiescent and the translation cached, all cost the same and retire
// together. The address was validated by access.
func (d *Device) writeRun(page uint32, off int, p []byte) (int, sim.Duration) {
	// A quiescent controller completes no flush during the run, so the
	// frame can be resolved up front; otherwise the translation window
	// below may retire this very page's flush and free its frame.
	var frame *sram.Frame
	n := 1
	quiet := d.quiescent()
	if quiet {
		if frame = d.buf.Lookup(page); frame != nil {
			n = words(len(p))
		}
	}
	start := d.now
	n, lat := d.translate(page, n)
	if len(p) > n*wordBytes {
		p = p[:n*wordBytes]
	}
	d.completeAccess(sim.Duration(n)*lat, stats.Writing)
	if !quiet {
		frame = d.buf.Lookup(page)
	}

	if frame == nil {
		// Copy-on-write: wait for buffer space if necessary (time
		// passes inside waitForFrame, charged to the background work
		// the host is stuck behind), then pull the page into SRAM in
		// one wide bank transfer.
		d.waitForFrame()
		srcBank := -1
		if loc, ok := d.table.Lookup(page); ok && !loc.InSRAM {
			srcBank = d.bankOf(loc.PPN)
		}
		frame = d.copyOnWrite(page)
		d.completeAccessOn(srcBank, d.arr.TransferTime(), stats.Writing)
	} else {
		d.counters.BufferHits += int64(n)
		d.captureShadow(page, frame)
		if frame.Flushing() {
			// The in-flight Flash copy is stale the moment this write
			// lands; it will be invalidated when the program finishes.
			frame.Dirtied = true
		}
	}
	d.completeAccess(sim.Duration(n)*100*sim.Nanosecond, stats.Writing) // SRAM write cycles
	if frame.Data != nil {
		copy(frame.Data[off:], p)
	}
	frame.MarkDirty(off, off+len(p))
	d.counters.HostWrites += int64(n)
	d.maybeScheduleFlush()
	total := d.now.Sub(start)
	d.writeLat.RecordN(total/sim.Duration(n), int64(n))
	return len(p), total
}

// copyOnWrite moves a page's current contents into a fresh SRAM frame
// and atomically retargets the page table (§3.1). The old Flash copy
// is invalidated — unless an open transaction needs it as a shadow.
//
// The order is the paper's: retarget first, invalidate second. Both
// stores are battery-backed, so a power failure between them leaves a
// consistent mapping plus one orphaned (Valid but unclaimed) Flash
// page, which the recovery sweep reclaims. The opposite order would
// open a window with no copy of the page reachable at all.
func (d *Device) copyOnWrite(page uint32) *sram.Frame {
	loc, mapped := d.table.Lookup(page)
	hasFlash := mapped && !loc.InSRAM
	var payload []byte
	home := d.eng.Home(page, hasFlash, loc.PPN)
	invalidate := d.captureShadow(page, nil)
	if hasFlash {
		var mergeLat sim.Duration
		payload, mergeLat = d.mergedPage(page, loc.PPN)
		if mergeLat > 0 {
			// Chained base: the wide transfer needed the unit pages too.
			d.completeAccess(mergeLat, stats.Writing)
		}
	}
	// Pull the mapping page in before the frame exists: EnsureCached can
	// program Flash (crash points), and a crash between Insert and the
	// retarget would leave a buffered frame whose table entry still
	// points at Flash. setSRAM's own ensure is then a cache hit.
	d.tierEnsure(page)
	frame := d.buf.Insert(page, home, payload)
	d.setSRAM(page)
	if d.inj != nil && d.inj.AtRetarget() {
		panic(&fault.Crash{Point: fault.PointRetarget, LPN: page})
	}
	if hasFlash {
		// Under the differential policy a page's entry can be pinned to
		// an open transaction's shadow base (its chain must survive for
		// rollback) while this copy is a full page the transaction
		// flushed since. Such a copy cannot become a second diff base.
		pinned := false
		if d.dir != nil {
			e := d.dir.Entry(page)
			pinned = e != nil && e.Base != loc.PPN
		}
		switch {
		case d.dir != nil && !pinned:
			// Keep the Flash copy alive as the page's diff base instead
			// of invalidating it — the next flush may program just a diff
			// record against it. The directory takes the liveness claim
			// unless a transaction shadow already did.
			d.dir.Keep(page, loc.PPN, invalidate)
		case invalidate:
			d.arr.Invalidate(loc.PPN)
		}
		if pinned {
			// Wholly dirty: once a commit hands the shadow base back to
			// the directory, no record may be diffed against that older
			// image.
			frame.MarkDirty(0, d.cfg.Geometry.PageSize)
		}
	}
	d.counters.CopyOnWrites++
	d.tierDrain()
	return frame
}

// completeAccess advances the clock past a host access, charging the
// time to the given activity and preempting any in-flight long ops
// (§3.4: host accesses have absolute priority).
func (d *Device) completeAccess(lat sim.Duration, act stats.Activity) {
	d.completeAccessOn(-1, lat, act)
}

// completeAccessOn is completeAccess for an access that occupies the
// given Flash bank (-1: none — SRAM, unmapped, or pure translation
// time). At host concurrency 1 the bank is irrelevant: every access
// parks the whole controller, the paper's timing. Above 1 only the
// touched bank's operations suspend and the other banks keep running
// through the access window (sched.Overlap).
func (d *Device) completeAccessOn(bank int, lat sim.Duration, act stats.Activity) {
	if lat < 0 {
		lat = 0
	}
	d.breakdown.Add(act, lat)
	d.now = d.now.Add(lat)
	if d.hostConc > 1 {
		d.sched.Overlap(bank, d.now)
	} else {
		d.sched.Preempt(d.now)
	}
	if d.inj != nil {
		d.inj.Tick(d.now)
	}
}

// bankOf returns the Flash bank owning a physical page.
func (d *Device) bankOf(ppn uint32) int {
	seg, _ := d.cfg.Geometry.Split(ppn)
	return d.cfg.Geometry.BankOf(seg)
}

// SetHostConcurrency selects the host-access preemption model for the
// device: n is the host queue depth it is driven at. Above 1 a host
// access suspends only the bank it touches (see completeAccessOn); at
// most 1 restores the single-outstanding §3.4 model. The host engine
// (internal/host) sets this; it never changes mid-access.
func (d *Device) SetHostConcurrency(n int) { d.hostConc = n }

// HostConcurrency returns the configured host queue depth (minimum 1).
func (d *Device) HostConcurrency() int {
	if d.hostConc < 1 {
		return 1
	}
	return d.hostConc
}

// CheckRange validates a host access range without charging time or
// changing state, returning an *AccessError exactly as the *Err access
// variants would. The host engine validates requests at submission.
func (d *Device) CheckRange(addr uint64, n int) error {
	_, err := d.checkAddr(addr, n)
	return err
}

// WriteWouldBlock reports whether a host write of n bytes at addr
// would hit the §5.4 buffer-full stall right now: the write buffer is
// full and at least one page in the span is not already buffered, so a
// copy-on-write would need a frame no flush has freed yet. No time is
// charged and no state changes; the multi-outstanding host engine uses
// this to defer blocked writes while it services other requests.
func (d *Device) WriteWouldBlock(addr uint64, n int) bool {
	if d.crashed || !d.buf.Full() {
		return false
	}
	ps := uint64(d.cfg.Geometry.PageSize)
	last := addr
	if n > 0 {
		last = addr + uint64(n) - 1
	}
	for page := addr / ps; page <= last/ps; page++ {
		if d.buf.Lookup(uint32(page)) == nil {
			return true
		}
	}
	return false
}

// RunBackgroundStep advances background work up to its next completion
// — one bounded step of the §5.4 buffer-full stall, the same step
// waitForFrame loops on. When limit is positive the clock never moves
// past it (the step may then end before any completion). Reports
// whether progress was made; false means nothing is runnable (or the
// device is crashed, or the limit has been reached). The host engine
// calls this to resolve blocked writes while keeping idle-window
// semantics exact.
func (d *Device) RunBackgroundStep(limit sim.Time) (progressed bool) {
	if d.crashed {
		return false
	}
	defer d.catchCrash(nil)
	if d.sched.Len() == 0 {
		if d.flushPending == 0 {
			d.flushPending++
		}
		if !d.expandPending() {
			return false
		}
	}
	need, ok := d.sched.NextCompletionIn()
	if !ok {
		return false
	}
	until := d.sched.Cursor().Add(need)
	if limit > 0 && until > limit {
		until = limit
	}
	if until <= d.now {
		return false
	}
	d.sched.Run(d.now, until)
	if c := d.sched.Cursor(); c > d.now {
		d.now = c
	}
	return true
}
