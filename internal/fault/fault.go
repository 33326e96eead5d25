// Package fault is the crash-point injection engine: it decides, at
// each point where a power failure would leave the hardware
// mid-operation, whether the simulated power fails *now*, and with
// what physical tearing.
//
// eNVy's durability argument (§3.1 atomic page-table retarget, §3.4
// spare-segment rule, §6 shadow copies) is entirely about these
// points. The model exposes three crash-point classes:
//
//   - PointProgram: inside a Flash page program. The page is left
//     partially programmed — some leading bytes carry the payload, the
//     byte in flight has only some of its 0 bits pulled low yet
//     (programming only turns 1 bits into 0), the rest still reads
//     erased (0xFF).
//   - PointErase: inside a segment erase. Every page of the segment is
//     left half-erased: random subsets of bits have floated back to 1.
//   - PointRetarget: the §3.1 window between retargeting the page
//     table at a fresh SRAM frame and invalidating the old Flash copy.
//     Nothing tears; the artifact is an orphaned Valid page.
//
// A Plan selects when to fire: at the Nth program/erase/retarget, at
// the first crash point after a simulated time, probabilistically per
// point, or any combination (first trigger wins). An Injector is
// one-shot: after it fires it never fires again, so recovery code can
// replay flash operations without re-crashing. Re-arm by installing a
// fresh Injector.
package fault

import (
	"errors"
	"fmt"

	"envy/internal/sim"
)

// ErrPowerFailure is the sentinel all injected crashes wrap:
// errors.Is(err, fault.ErrPowerFailure) identifies a simulated power
// loss regardless of which crash point fired.
var ErrPowerFailure = errors.New("fault: simulated power failure")

// Point identifies a crash-point class.
type Point int

// Crash-point classes.
const (
	PointProgram Point = iota
	PointErase
	PointRetarget
	// PointExternal marks a crash forced from outside the injector
	// (Device.CrashPowerCycle with no armed plan).
	PointExternal
	// PointMerge is a merge boundary inside a multi-lane background
	// window: several background operations (flush programs, cleaning
	// copies, erases on disjoint banks) completed at the same simulated
	// instant, and the power fails between their completion callbacks —
	// some lanes' SRAM/flash effects are merged into the controller
	// state, the rest are still in flight and tear like any interrupted
	// program.
	PointMerge
)

func (p Point) String() string {
	switch p {
	case PointProgram:
		return "program"
	case PointErase:
		return "erase"
	case PointRetarget:
		return "retarget"
	case PointExternal:
		return "external"
	case PointMerge:
		return "merge"
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Crash is the value a firing crash point panics with. The controller
// catches it at its public entry points and converts it into a latched
// crashed state. It implements error and wraps ErrPowerFailure.
type Crash struct {
	Point Point
	PPN   uint32 // torn physical page, for PointProgram
	Seg   int    // half-erased segment, for PointErase
	LPN   uint32 // logical page mid-retarget, for PointRetarget
}

func (c *Crash) Error() string {
	switch c.Point {
	case PointProgram:
		return fmt.Sprintf("fault: power failed mid-program of physical page %d", c.PPN)
	case PointErase:
		return fmt.Sprintf("fault: power failed mid-erase of segment %d", c.Seg)
	case PointRetarget:
		return fmt.Sprintf("fault: power failed between retarget and invalidate of logical page %d", c.LPN)
	case PointMerge:
		return "fault: power failed between lane completions of a multi-lane background window"
	default:
		return "fault: power failed"
	}
}

// Unwrap makes errors.Is(c, ErrPowerFailure) true.
func (c *Crash) Unwrap() error { return ErrPowerFailure }

// Plan describes when the power fails. The zero Plan never fires.
// Counts are 1-based: Program=1 crashes the very next program. If
// several triggers are set, whichever is satisfied first fires.
type Plan struct {
	Program  int64 // crash at the Nth Flash page program
	Erase    int64 // crash at the Nth segment erase
	Retarget int64 // crash at the Nth copy-on-write retarget window

	// Merge crashes at the Nth merge boundary inside multi-lane
	// background windows: when k ≥ 2 background operations complete at
	// one simulated instant, the k-1 gaps between their completion
	// callbacks are counted, and the power fails in the Nth such gap —
	// the earlier lanes' effects are merged, the later ones are lost in
	// flight.
	Merge int64

	// At crashes at the first crash point reached once the simulated
	// clock is at or past this time (a crash needs an operation to
	// interrupt; a fully idle device never reaches a crash point).
	At sim.Duration

	// Probability fires each crash point independently with this
	// probability, drawn from a stream seeded with Seed.
	Probability float64

	// Seed seeds the injector's private random stream (tear shapes,
	// probabilistic firing). Zero is a valid seed.
	Seed uint64
}

// Armed reports whether the plan can ever fire.
func (p Plan) Armed() bool {
	return p.Program > 0 || p.Erase > 0 || p.Retarget > 0 || p.Merge > 0 || p.At > 0 || p.Probability > 0
}

// Tear describes how far an interrupted page program got: FullBytes
// leading bytes fully programmed, then one byte with only PartialMask's
// zero bits pulled low, then untouched (erased) bytes.
type Tear struct {
	FullBytes   int
	PartialMask byte
}

// Injector executes a Plan. It is one-shot: once fired, every
// subsequent query answers "no crash". Not safe for concurrent use.
type Injector struct {
	plan Plan
	rng  *sim.RNG

	programs  int64
	erases    int64
	retargets int64
	merges    int64

	timeDue bool
	fired   bool
}

// NewInjector returns an injector for the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, rng: sim.NewRNG(plan.Seed)}
}

// Plan returns the plan the injector was armed with.
func (in *Injector) Plan() Plan { return in.plan }

// Fired reports whether the injector has already crashed the device.
func (in *Injector) Fired() bool { return in.fired }

// Counts returns how many crash points of each class the injector has
// observed (including the one it fired at, if any).
func (in *Injector) Counts() (programs, erases, retargets int64) {
	return in.programs, in.erases, in.retargets
}

// Tick informs the injector of the simulated clock; once it reaches
// Plan.At, the next crash point of any class fires.
func (in *Injector) Tick(now sim.Time) {
	if in.plan.At > 0 && now >= sim.Time(0).Add(in.plan.At) {
		in.timeDue = true
	}
}

// fire decides whether the current crash point (the countth of its
// class, against threshold) brings the power down.
func (in *Injector) fire(count, threshold int64) bool {
	if in.fired {
		return false
	}
	switch {
	case threshold > 0 && count == threshold:
	case in.timeDue:
	case in.plan.Probability > 0 && in.rng.Float64() < in.plan.Probability:
	default:
		return false
	}
	in.fired = true
	return true
}

// AtProgram is called by the flash array at every page program with the
// page size; a (Tear, true) return means the power fails mid-program
// and the page must be left in the returned torn state.
func (in *Injector) AtProgram(pageSize int) (Tear, bool) {
	in.programs++
	if !in.fire(in.programs, in.plan.Program) {
		return Tear{}, false
	}
	return Tear{
		FullBytes:   in.rng.Intn(pageSize),
		PartialMask: byte(in.rng.Uint64()),
	}, true
}

// AtErase is called by the flash array at every segment erase; true
// means the power fails mid-erase and the segment must be left
// half-erased.
func (in *Injector) AtErase() bool {
	in.erases++
	return in.fire(in.erases, in.plan.Erase)
}

// AtRetarget is called by the controller inside the §3.1 copy-on-write
// window, after the page table points at the fresh SRAM frame and
// before the old Flash copy is invalidated; true means the power fails
// there.
func (in *Injector) AtRetarget() bool {
	in.retargets++
	return in.fire(in.retargets, in.plan.Retarget)
}

// AtMerge is called by the scheduler between the completion callbacks
// of a multi-lane background window (k ≥ 2 operations retiring at one
// simulated instant); true means the power fails in that gap, with the
// window's effects partially merged.
func (in *Injector) AtMerge() bool {
	in.merges++
	return in.fire(in.merges, in.plan.Merge)
}

// MergeBoundaries returns how many multi-lane merge boundaries the
// injector has observed (including the one it fired at, if any). Crash
// sweeps use it to size a deterministic Plan.Merge sweep.
func (in *Injector) MergeBoundaries() int64 { return in.merges }

// TearSeed returns a fresh seed for scrambling torn contents (half
// erases, in-flight flush tears), drawn from the injector's stream so
// torn states are reproducible from Plan.Seed.
func (in *Injector) TearSeed() uint64 { return in.rng.Uint64() }
