// Package host models N concurrent host initiators issuing requests
// into a bounded queue in front of the eNVy controller — the
// multi-outstanding extension of the paper's single-outstanding host
// model (§5.1).
//
// # Model
//
// Requests enter a FIFO queue of capacity equal to the configured
// depth; a submission into a full queue back-pressures (the initiator
// blocks, in simulated time, until a slot frees). The engine services
// the queue work-conservingly under two ordering constraints:
//
//   - reads may pass reads: two overlapping reads commute;
//   - a write to page P fences all later accesses touching P — they
//     are serviced only after the write, preserving program order per
//     page (and read-your-writes for every initiator).
//
// Requests whose page ranges are disjoint reorder freely. The paper's
// win from depth comes from the §5.4 stall: a write blocked on a full
// buffer is deferred while later reads are serviced, and — with the
// device in multi-outstanding mode (core.SetHostConcurrency) — the
// flushes draining the buffer keep programming on other banks through
// those reads instead of suspending (§6 extended to the host path).
//
// Every request carries arrival, service-start, and completion
// timestamps on the simulated clock; sojourn latency (completion −
// arrival, queueing included) feeds the engine's histograms, which
// surface as the p50/p95/p99 host latencies in envy.Stats.
//
// The engine is deterministic and, like the controller, not safe for
// concurrent use by itself — envy.Device serializes callers and keeps
// the simulated clock single-threaded.
package host

import (
	"fmt"

	"envy/internal/sim"
	"envy/internal/stats"
)

// Request is one outstanding host access.
type Request struct {
	Write bool
	Addr  uint64
	Data  []byte // read destination or write payload

	// Timestamps on the simulated clock, stamped by the engine.
	Arrival    sim.Time // entered the queue
	Start      sim.Time // service began (bus acquired)
	Completion sim.Time // service finished

	// Err is the access outcome (nil, *core.AccessError semantics are
	// the backend's; a *fault.Crash means the power failed mid-access).
	Err error

	// OnComplete, if non-nil, runs immediately after the request
	// completes, before the engine services anything else.
	OnComplete func(*Request)

	// Owner is an opaque back-pointer for a layer that embeds the
	// request in its own type: one static OnComplete func recovers the
	// owner from it instead of allocating a closure per request.
	Owner any

	firstPage, lastPage uint32
	completed           bool
}

// Completed reports whether the request has been serviced.
func (r *Request) Completed() bool { return r.completed }

// Latency returns the request's sojourn time — completion minus
// arrival, queueing and stalls included. Zero until completion.
func (r *Request) Latency() sim.Duration {
	if !r.completed {
		return 0
	}
	return r.Completion.Sub(r.Arrival)
}

// Backend is the device surface the engine drives. *core.Device
// implements it.
type Backend interface {
	Now() sim.Time
	ReadErr(p []byte, addr uint64) (sim.Duration, error)
	WriteErr(p []byte, addr uint64) (sim.Duration, error)

	// WriteWouldBlock reports whether a write would hit the §5.4
	// buffer-full stall right now; the engine defers such writes while
	// other requests are serviceable.
	WriteWouldBlock(addr uint64, n int) bool

	// RunBackgroundStep advances background work up to its next
	// completion, never past a positive limit; false means no progress
	// is possible.
	RunBackgroundStep(limit sim.Time) bool
}

// Engine is the bounded multi-outstanding request queue.
type Engine struct {
	be       Backend
	depth    int
	pageSize uint64

	queue []*Request

	lat      stats.Latency // sojourn, all requests
	readLat  stats.Latency
	writeLat stats.Latency
	gauge    stats.DepthGauge
	served   int64

	// Adaptive depth controller state (adaptive.go); effDepth is the
	// current admission bound in [1, depth] when adaptive is on.
	adaptive bool
	src      suspensionSource
	effDepth int
	minEff   int
	window   int
	lastSusp int64
}

// New builds an engine of the given queue depth over a backend with
// the given page size. Depth 1 reproduces the single-outstanding host
// bit-exactly: every request is serviced synchronously at submission,
// through the identical controller path.
func New(be Backend, depth, pageSize int) *Engine {
	if depth < 1 {
		panic(fmt.Sprintf("host: need depth >= 1, got %d", depth))
	}
	if pageSize < 1 {
		panic(fmt.Sprintf("host: need a positive page size, got %d", pageSize))
	}
	return &Engine{be: be, depth: depth, pageSize: uint64(pageSize)}
}

// Depth returns the queue capacity.
func (e *Engine) Depth() int { return e.depth }

// Outstanding returns the number of queued, unserviced requests.
func (e *Engine) Outstanding() int { return len(e.queue) }

// Served returns the number of requests serviced to completion.
func (e *Engine) Served() int64 { return e.served }

// Latency returns the sojourn-latency histogram over all requests.
func (e *Engine) Latency() *stats.Latency { return &e.lat }

// ReadLatency and WriteLatency split the sojourn histogram by kind.
func (e *Engine) ReadLatency() *stats.Latency  { return &e.readLat }
func (e *Engine) WriteLatency() *stats.Latency { return &e.writeLat }

// MeanDepth returns the time-weighted mean queue depth so far.
func (e *Engine) MeanDepth() float64 { return e.gauge.Mean(e.be.Now()) }

// MaxDepth returns the largest queue depth reached.
func (e *Engine) MaxDepth() int { return e.gauge.Max() }

// ResetStats clears the engine's histograms and depth gauge (queued
// requests are unaffected). Reset the backend's statistics first: the
// adaptive controller re-bases on its suspension counter here.
func (e *Engine) ResetStats() {
	e.lat.Reset()
	e.readLat.Reset()
	e.writeLat.Reset()
	e.gauge.Reset()
	e.served = 0
	if e.adaptive {
		// Re-base the depth controller on the counter the caller has just
		// zeroed (core.Device.ResetStats), or its next window differences
		// against the warm-up's total; window keeps its phase.
		e.minEff = e.effDepth
		e.lastSusp = e.src.Suspensions()
	}
}

// Submit enqueues r, stamping its arrival at the current instant. If
// the queue is at capacity the submitting initiator back-pressures:
// the engine first services requests (advancing the simulated clock)
// until a slot frees. After enqueueing, every serviceable request is
// serviced — at depth 1 that is r itself, synchronously, exactly as a
// direct device call.
func (e *Engine) Submit(r *Request) { e.SubmitAll(r) }

// SubmitAll enqueues a group of requests that arrive at the same
// instant — N initiators issuing simultaneously — and then services the
// queue once. Unlike sequential Submit calls, none of the group is
// serviced before all are queued. Back-pressure applies per request,
// exactly as in Submit.
func (e *Engine) SubmitAll(rs ...*Request) {
	for _, r := range rs {
		if r.completed {
			panic("host: resubmitted a completed request")
		}
		r.firstPage = uint32(r.Addr / e.pageSize)
		last := r.Addr
		if len(r.Data) > 0 {
			last = r.Addr + uint64(len(r.Data)) - 1
		}
		r.lastPage = uint32(last / e.pageSize)
		if len(e.queue) >= e.effectiveDepth() {
			e.forceProgress(func() bool { return len(e.queue) < e.effectiveDepth() })
		}
		r.Arrival = e.be.Now()
		e.queue = append(e.queue, r)
		e.gauge.Set(e.be.Now(), len(e.queue))
	}
	e.pump()
}

// Drain services every outstanding request, blocked writes included.
func (e *Engine) Drain() {
	e.forceProgress(func() bool { return len(e.queue) == 0 })
}

// RunUntil services outstanding requests and advances blocked
// background work until the clock reaches t or the queue empties —
// the engine's idle loop. The clock may pass t if a service was in
// flight across it; it never passes t while merely waiting.
func (e *Engine) RunUntil(t sim.Time) {
	for {
		e.pump()
		if len(e.queue) == 0 || e.be.Now() >= t {
			return
		}
		// Everything left is fenced behind a blocked write: advance the
		// background work that will free a frame, but not past t.
		if !e.be.RunBackgroundStep(t) {
			return
		}
	}
}

// ServeUntilDone drives the engine until r completes. It panics if r
// is not queued here.
func (e *Engine) ServeUntilDone(r *Request) {
	if !r.completed && !e.queued(r) {
		panic("host: waiting on a request that was never submitted")
	}
	e.forceProgress(func() bool { return r.completed })
}

func (e *Engine) queued(r *Request) bool {
	for _, q := range e.queue {
		if q == r {
			return true
		}
	}
	return false
}

// forceProgress pumps and background-steps until done reports true,
// servicing the queue head unconditionally (taking the §5.4 stall
// inline) when nothing else can move.
func (e *Engine) forceProgress(done func() bool) {
	guard := 0
	for !done() {
		n := len(e.queue)
		served := e.served
		e.pump()
		if done() {
			return
		}
		if e.served == served && len(e.queue) == n && !e.be.RunBackgroundStep(0) {
			// Nothing serviceable and no background progress: take the
			// head's stall inside the controller (or surface its error).
			e.service(e.queue[0])
		}
		if guard++; guard > 1<<22 {
			panic("host: forceProgress made no progress")
		}
	}
}

// pump services every request that may be serviced right now: at depth
// 1 the queue head, unconditionally (the single-outstanding model,
// stalls taken inline); above 1, repeatedly the first request in FIFO
// order that is not fenced by an earlier overlapping request and — if
// a write — would not stall on a full buffer. Blocked writes stay
// queued; the §5.4 stall is deferred until reads stop arriving or the
// buffer drains during their service.
func (e *Engine) pump() {
	if e.depth == 1 {
		for len(e.queue) > 0 {
			e.service(e.queue[0])
		}
		return
	}
	for {
		r := e.nextServiceable()
		if r == nil {
			return
		}
		e.service(r)
	}
}

// nextServiceable returns the first request eligible to run now: no
// earlier incomplete request overlaps it (unless both are reads), and
// a write must not be blocked on a full buffer.
func (e *Engine) nextServiceable() *Request {
	for i, r := range e.queue {
		if !e.eligible(i) {
			continue
		}
		if r.Write && e.be.WriteWouldBlock(r.Addr, len(r.Data)) {
			continue
		}
		return r
	}
	return nil
}

// eligible reports whether queue[i] may pass every earlier queued
// request: reads may pass reads; any overlap involving a write fences.
func (e *Engine) eligible(i int) bool {
	r := e.queue[i]
	for _, q := range e.queue[:i] {
		if !overlap(r, q) {
			continue
		}
		if r.Write || q.Write {
			return false
		}
	}
	return true
}

// overlap reports whether two requests touch a common page.
func overlap(a, b *Request) bool {
	return a.firstPage <= b.lastPage && b.firstPage <= a.lastPage
}

// service runs one request through the controller and completes it:
// dequeue, histograms, depth gauge, completion callback.
func (e *Engine) service(r *Request) {
	r.Start = e.be.Now()
	if r.Write {
		_, r.Err = e.be.WriteErr(r.Data, r.Addr)
	} else {
		_, r.Err = e.be.ReadErr(r.Data, r.Addr)
	}
	r.Completion = e.be.Now()
	r.completed = true
	for i, q := range e.queue {
		if q == r {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	e.gauge.Set(e.be.Now(), len(e.queue))
	e.served++
	lat := r.Latency()
	e.lat.Record(lat)
	if r.Write {
		e.writeLat.Record(lat)
	} else {
		e.readLat.Record(lat)
	}
	e.adaptTick()
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}
