// Lanepurity and maporder fixture: methods of the lane type are lane
// entry points, and this package stands in for envy/internal/core —
// simulation territory for the cross-package taint check. The sched
// and wallhelp fixtures must be analyzed first so their function facts
// are in the store.
package core

import (
	"math/rand"

	"envy/internal/pagetable"
	"envy/internal/sched"
	"envy/internal/sram"
	"envy/internal/wallhelp"
)

// pkgCounter is package-level state no lane may touch.
var pkgCounter int

// lane mirrors the real execution lane; every method is an entry point.
type lane struct {
	hits int
	sc   *sched.Scheduler
	dd   *pagetable.DiffDirectory
	buf  *sram.Buffer
}

// localOnly writes lane-local fields. Clean.
func (ln *lane) localOnly() {
	ln.hits++
	n := 0
	n++
	_ = n
}

// bumpPackage writes package state directly from a lane.
func (ln *lane) bumpPackage() {
	pkgCounter++ // want `lanepurity: write to package-level var envy/internal/core\.pkgCounter in lane entry lane\.bumpPackage`
}

// flushLocal reaches the counter through a same-package helper.
func (ln *lane) flushLocal() {
	merge() // want `lanepurity: write to package-level var envy/internal/core\.pkgCounter at lanes\.go:\d+, reachable from lane entry lane\.flushLocal via merge`
}

// crossPackage reaches package state in sched through a module call;
// only the sched fixture's exported fact makes the write visible.
func (ln *lane) crossPackage() {
	sched.EnqueueGlobal() // want `lanepurity: write to package-level var envy/internal/sched\.pendingOps at queue\.go:\d+, reachable from lane entry lane\.crossPackage via envy/internal/sched\.EnqueueGlobal`
}

// sharedStruct writes a device-shared structure through a module call.
func (ln *lane) sharedStruct() {
	ln.sc.Reset() // want `lanepurity: write to shared envy/internal/sched\.Scheduler state at queue\.go:\d+, reachable from lane entry lane\.sharedStruct via envy/internal/sched\.Scheduler\.Reset`
}

// chainAppend grows a diff chain from a lane: the chain directory is
// shared with the flush and cleaning machinery, so mutations belong in
// the serial phases.
func (ln *lane) chainAppend() {
	ln.dd.Append(1, pagetable.DiffLoc{}) // want `lanepurity: write to shared envy/internal/pagetable\.DiffDirectory state at diff\.go:\d+, reachable from lane entry lane\.chainAppend via envy/internal/pagetable\.DiffDirectory\.Append`
}

// startFlush takes a frame out of the flush candidates from a lane:
// the buffer's candidate index is shared with the flush machinery, so
// flush transitions belong in the serial phases. Reading a frame's
// flush state is what a lane write does before marking it Dirtied.
func (ln *lane) startFlush(f *sram.Frame) {
	if f.Flushing() {
		return
	}
	ln.buf.BeginFlush(f) // want `lanepurity: write to shared envy/internal/sram\.Buffer state at sram\.go:\d+, reachable from lane entry lane\.startFlush via envy/internal/sram\.Buffer\.BeginFlush`
}

// merge is the serial-phase helper: the same write is legal outside
// lane context, so the write site itself is not flagged.
func merge() {
	pkgCounter++
}

// runWorker is a worker loop outside the lane type, opted in by
// directive.
//
//envyvet:lane-entry
func runWorker() {
	pkgCounter++ // want `lanepurity: write to package-level var envy/internal/core\.pkgCounter in lane entry runWorker`
}

// stampWall leaks the wall clock through a non-simulation helper: only
// the imported taint fact can see through the call.
func stampWall() {
	_ = wallhelp.Stamp() // want `maporder: call reaches time\.Now at wallhelp\.go:\d+ via envy/internal/wallhelp\.Stamp; simulated outcome must not depend on the wall clock or global rand`
}

// deepStamp reaches the same read one hop further away.
func deepStamp() {
	_ = wallhelp.Wrapped() // want `maporder: call reaches time\.Now at wallhelp\.go:\d+ via envy/internal/wallhelp\.Wrapped → Stamp`
}

// globalDice draws on the process-global rand source directly.
func globalDice() int {
	return rand.Intn(6) // want `maporder: math/rand\.Intn draws from the process-global rand source`
}

// seededDice draws from an explicit generator. Clean.
func seededDice(r *rand.Rand) int {
	return r.Intn(6)
}

// freshSource builds a seeded generator: constructors are exempt. Clean.
func freshSource() *rand.Rand {
	return rand.New(rand.NewSource(42))
}
