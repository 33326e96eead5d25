// Package cluster is the service tier over many eNVy devices: it
// shards one flat logical-page namespace across N envy.Device members
// (consistent hashing over a fixed virtual-node ring, or a contiguous
// range split), routes and batches requests into each member's
// SubmitAll, propagates per-member AIMD back-pressure to the
// submitting client, and merges per-device measurements into one
// aggregate stats plane.
//
// The paper models a single controller; the ROADMAP's north star — a
// storage system serving a large host population — needs many of them
// behind one namespace. The tier adds no simulated hardware of its
// own: members keep their own simulated clocks, and the driver (see
// RunLoad) advances them together against a global arrival clock.
//
// Crash handling follows §9 end to end: a member that suffers a
// simulated power failure is marked down, its pending requests fail
// with *ShardDownError, and after Recover the member is re-admitted
// and the cluster drains back to a consistent state (verified by
// invariant.CheckDevice on every member).
//
// Lock order: Cluster.mu ranks immediately after envy.Device.mu —
// completion callbacks run inside member device calls and take it —
// so no Cluster method may call into a member while holding mu.
// Member snapshots are taken first, then merged under mu.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"envy"
	"envy/internal/invariant"
	"envy/internal/sim"
	"envy/internal/stats"
)

// Config describes a cluster.
type Config struct {
	// Members is the number of devices in the tier (required, >= 1).
	Members int

	// Member configures each device. The zero value selects a scaled
	// paper-shaped device (SmallConfig geometry) with parallel
	// flushing, an 8-deep host queue, and the adaptive depth
	// controller — the PR 6 concurrent profile.
	Member envy.Config

	// TotalPages sizes the cluster namespace in logical pages. The
	// default is 85% of the members' aggregate logical capacity,
	// leaving headroom for placement imbalance.
	TotalPages int

	// Placement selects HashRing (default) or RangeSplit.
	Placement Placement

	// VirtualNodes is the ring points per member under HashRing
	// (default 512; balance tightens with the square root of the
	// count).
	VirtualNodes int

	// Seed salts the ring hash, making distinct-but-reproducible
	// placements available. Zero is a valid (and the default) salt.
	Seed uint64
}

// DefaultMemberConfig is the per-device profile used when
// Config.Member is zero: SmallConfig geometry with the concurrent
// host path enabled.
func DefaultMemberConfig() envy.Config {
	mc := envy.SmallConfig()
	mc.ParallelFlush = 8
	mc.HostQueueDepth = 8
	mc.AdaptiveDepth = true
	return mc
}

// A ShardDownError reports a request routed to (or pending on) a
// crashed member. errors.Is matches envy.ErrCrashed through it.
type ShardDownError struct {
	Shard int
	Err   error
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cluster: shard %d is down: %v", e.Shard, e.Err)
}

func (e *ShardDownError) Unwrap() error { return e.Err }

// Request is one asynchronous cluster access. The caller fills Write,
// Addr, Data (and optionally OnComplete); the tier fills the rest at
// completion. Addr is a byte address in the cluster namespace and the
// access must lie within one logical page. A Request is single-use.
type Request struct {
	Write bool
	Addr  uint64
	Data  []byte

	// OnComplete, if non-nil, runs when the request completes (after
	// the completion fields are filled, inside whichever device call
	// drove the member). It must not call back into the Cluster.
	OnComplete func(*Request)

	// Completion-filled fields. Shard and Backpressured are set at
	// submission: Backpressured records that the owning member was at
	// or over its AIMD effective depth when this request arrived — the
	// tier's back-pressure signal to the client.
	Shard         int
	Backpressured bool
	Arrival       time.Duration
	Start         time.Duration
	Completion    time.Duration
	Latency       time.Duration
	Err           error

	// inner is the member-level request, held by value and completed
	// through completeMember via its Owner back-pointer; its Done
	// channel is the request's own. c is the tier the request was
	// submitted to, which doubles as the single-use marker. local marks
	// a request the tier completed itself because its member was down.
	inner envy.Request
	c     *Cluster
	local bool
}

// closedDone is the Done channel of every locally completed request.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done returns a channel closed when the request completes; nil
// before Submit. Like envy.Request.Done it never blocks.
func (r *Request) Done() <-chan struct{} {
	if r.local {
		return closedDone
	}
	return r.inner.Done()
}

// submitScratch is SubmitAll's grouping workspace: the accepted
// requests per member, the members in first-appearance order, and the
// member-level batch. Instances cycle through Cluster.free so that
// concurrent callers each get their own.
type submitScratch struct {
	groups [][]*Request // indexed by member
	order  []int
	inners []*envy.Request
}

// shardState is the per-member routing state, guarded by Cluster.mu.
type shardState struct {
	down bool

	pages         int // namespace pages routed to this member
	submitted     int64
	completed     int64
	acked         int64
	failed        int64
	rejected      int64
	backpressured int64
	crashes       int64
	rejoins       int64
}

// Cluster is the service tier. All methods are safe for concurrent
// use; the members remain individually locked envy.Devices underneath.
type Cluster struct {
	cfg      Config
	pageSize int
	members  []*envy.Device
	dir      []route

	mu     sync.Mutex
	shards []shardState
	lat    stats.Latency    // cluster-observed sojourn latency, all members
	free   []*submitScratch // idle SubmitAll workspaces
}

// New builds a cluster of cfg.Members fresh devices and its placement
// directory.
func New(cfg Config) (*Cluster, error) {
	if cfg.Members < 1 {
		return nil, fmt.Errorf("cluster: need at least one member, got %d", cfg.Members)
	}
	mc := cfg.Member
	if mc.PageSize == 0 && mc.Segments == 0 {
		mc = DefaultMemberConfig()
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = 512
	}

	members := make([]*envy.Device, cfg.Members)
	capacity := make([]int, cfg.Members)
	aggregate := 0
	for i := range members {
		m, err := envy.New(mc)
		if err != nil {
			return nil, fmt.Errorf("cluster: member %d: %w", i, err)
		}
		members[i] = m
		capacity[i] = int(m.Size()) / mc.PageSize
		aggregate += capacity[i]
	}
	if cfg.TotalPages == 0 {
		cfg.TotalPages = aggregate * 17 / 20
	}

	dir, perMember, err := buildDirectory(cfg.Members, cfg.TotalPages, cfg.Placement, cfg.VirtualNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	shards := make([]shardState, cfg.Members)
	for i, n := range perMember {
		if n > capacity[i] {
			return nil, fmt.Errorf("cluster: placement routes %d pages to member %d (capacity %d); shrink TotalPages",
				n, i, capacity[i])
		}
		shards[i].pages = n
	}
	return &Cluster{
		cfg:      cfg,
		pageSize: mc.PageSize,
		members:  members,
		dir:      dir,
		shards:   shards,
	}, nil
}

// Members returns the member count.
func (c *Cluster) Members() int { return len(c.members) }

// Pages returns the namespace size in logical pages.
func (c *Cluster) Pages() int { return len(c.dir) }

// PageSize returns the logical page size in bytes.
func (c *Cluster) PageSize() int { return c.pageSize }

// Device returns member i — for invariant checks and direct
// inspection, not for routing around the tier.
func (c *Cluster) Device(i int) *envy.Device { return c.members[i] }

// route validates r's address range and returns its directory entry.
func (c *Cluster) route(r *Request) (route, error) {
	if r.c != nil {
		return route{}, fmt.Errorf("cluster: Request resubmitted; requests are single-use")
	}
	if len(r.Data) == 0 {
		return route{}, fmt.Errorf("cluster: empty request data")
	}
	page := r.Addr / uint64(c.pageSize)
	if page >= uint64(len(c.dir)) {
		return route{}, fmt.Errorf("cluster: address %#x beyond namespace (%d pages of %d bytes)",
			r.Addr, len(c.dir), c.pageSize)
	}
	if int(r.Addr%uint64(c.pageSize))+len(r.Data) > c.pageSize {
		return route{}, fmt.Errorf("cluster: request at %#x crosses a page boundary (len %d, page size %d)",
			r.Addr, len(r.Data), c.pageSize)
	}
	return c.dir[page], nil
}

// claim validates r and marks it submitted to c, which is all it
// changes: a request that appears twice in one batch is refused the
// second time, and clearing r.c undoes the claim.
func (c *Cluster) claim(r *Request) error {
	if _, err := c.route(r); err != nil {
		return err
	}
	r.c = c
	return nil
}

// admit applies the down-shard fast path to a claimed r and builds its
// member-level request. It reports whether r should be submitted to
// its member: false means r was completed locally (down shard).
func (c *Cluster) admit(r *Request) bool {
	rt := c.dir[r.Addr/uint64(c.pageSize)]
	shard := int(rt.member)
	r.Shard = shard

	c.mu.Lock()
	down := c.shards[shard].down
	if down {
		c.shards[shard].submitted++
		c.shards[shard].rejected++
		c.shards[shard].completed++
	}
	c.mu.Unlock()
	if down {
		r.Err = &ShardDownError{Shard: shard, Err: envy.ErrCrashed}
		r.local = true
		if r.OnComplete != nil {
			r.OnComplete(r)
		}
		return false
	}

	localAddr := uint64(rt.local)*uint64(c.pageSize) + r.Addr%uint64(c.pageSize)
	r.inner = envy.Request{Write: r.Write, Addr: localAddr, Data: r.Data, OnComplete: completeMember, Owner: r}
	return true
}

// completeMember is every Request's member-level completion callback:
// it copies the outcome into the public fields, accounts it to the
// shard and runs the caller's OnComplete. The member closes the done
// channel, which the request shares, as soon as this returns.
func completeMember(ir *envy.Request) {
	r := ir.Owner.(*Request)
	c, shard := r.c, r.Shard
	r.Arrival = ir.Arrival
	r.Start = ir.Start
	r.Completion = ir.Completion
	r.Latency = ir.Latency
	r.Err = ir.Err
	if r.Err != nil && (errors.Is(r.Err, envy.ErrCrashed) || errors.Is(r.Err, envy.ErrPowerFailure)) {
		r.Err = &ShardDownError{Shard: shard, Err: ir.Err}
	}
	c.mu.Lock()
	s := &c.shards[shard]
	s.completed++
	if r.Err == nil {
		s.acked++
		c.lat.Record(sim.Duration(r.Latency))
	} else {
		s.failed++
	}
	c.mu.Unlock()
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// probe applies the back-pressure signal to a group of requests bound
// for one member: request i in the group is marked Backpressured when
// the member's queue — Outstanding() already enqueued plus the i
// requests ahead of it in the group — is at or over the AIMD effective
// depth, i.e. when absorbing it will force the submitter to service
// (block in simulated time). The probe runs before the member call:
// the engine drains what it can during SubmitAll, so probing
// afterwards would always read an empty queue.
func (c *Cluster) probe(shard int, group ...*Request) {
	m := c.members[shard]
	out, depth := m.Outstanding(), m.EffectiveDepth()
	for i, r := range group {
		if out+i >= depth {
			r.Backpressured = true
		}
	}
}

// bump updates the per-shard submission counters for one accepted
// request.
func (c *Cluster) bump(r *Request) {
	c.mu.Lock()
	s := &c.shards[r.Shard]
	s.submitted++
	if r.Backpressured {
		s.backpressured++
	}
	c.mu.Unlock()
}

// Submit routes r to its member and enqueues it. A malformed request
// returns an error with nothing enqueued. A request routed to a down
// member completes immediately with a *ShardDownError in r.Err (also
// returned). Completion is otherwise observed through Wait, Done, or
// OnComplete.
func (c *Cluster) Submit(r *Request) error {
	if err := c.claim(r); err != nil {
		return err
	}
	if !c.admit(r) {
		return r.Err // down shard: completed locally
	}
	c.probe(r.Shard, r)
	c.bump(r)
	if err := c.members[r.Shard].Submit(&r.inner); err != nil {
		// Unreachable after route(): member validation is a subset of
		// cluster validation. Surface it without completing r.
		return err
	}
	c.sweep(r.Shard)
	return nil
}

// SubmitAll routes the batch and submits it member by member, each
// group through one device-mutex acquisition. Either the whole batch
// is accepted or none of it: every request is routed before any is
// submitted, and the first malformed one returns its error with no
// request submitted or completed (the already-routed prefix is unwound
// and may be resubmitted). Requests routed to down members complete
// immediately with *ShardDownError and do not abort the batch.
func (c *Cluster) SubmitAll(rs ...*Request) error {
	sc := c.acquire()
	defer c.release(sc)
	for i, r := range rs {
		if err := c.claim(r); err != nil {
			for _, p := range rs[:i] {
				p.c = nil
			}
			return err
		}
	}
	// Group accepted requests per member, preserving submission order
	// within each group (first-appearance member order).
	for _, r := range rs {
		if !c.admit(r) {
			continue
		}
		if len(sc.groups[r.Shard]) == 0 {
			sc.order = append(sc.order, r.Shard)
		}
		sc.groups[r.Shard] = append(sc.groups[r.Shard], r)
	}
	for _, shard := range sc.order {
		group := sc.groups[shard]
		c.probe(shard, group...)
		sc.inners = sc.inners[:0]
		for _, r := range group {
			sc.inners = append(sc.inners, &r.inner)
			c.bump(r)
		}
		if err := c.members[shard].SubmitAll(sc.inners...); err != nil {
			return err
		}
		c.sweep(shard)
	}
	return nil
}

// acquire takes an idle SubmitAll workspace, or makes one.
func (c *Cluster) acquire() *submitScratch {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		sc := c.free[n-1]
		c.free = c.free[:n-1]
		return sc
	}
	return &submitScratch{groups: make([][]*Request, len(c.members))}
}

// release empties sc — dropping its request pointers, keeping its
// capacity — and makes it available to the next SubmitAll.
func (c *Cluster) release(sc *submitScratch) {
	for _, shard := range sc.order {
		clear(sc.groups[shard])
		sc.groups[shard] = sc.groups[shard][:0]
	}
	clear(sc.inners[:cap(sc.inners)])
	sc.order, sc.inners = sc.order[:0], sc.inners[:0]
	c.mu.Lock()
	c.free = append(c.free, sc)
	c.mu.Unlock()
}

// Wait drives the owning member until r completes and returns its
// outcome (the *ShardDownError form for crash failures), or the
// member's error if r never reached it.
func (c *Cluster) Wait(r *Request) error {
	if r.local {
		return r.Err // completed locally: routed to a down member
	}
	if r.c == nil {
		return fmt.Errorf("cluster: Wait on a request that was never submitted")
	}
	err := c.members[r.Shard].Wait(&r.inner)
	c.sweep(r.Shard)
	if err != nil && r.Err != nil {
		return r.Err // the wrapped form
	}
	return err
}

// Drain services every outstanding request on every up member.
// Pending requests on a member that crashes mid-drain complete with
// *ShardDownError.
func (c *Cluster) Drain() {
	for i, m := range c.members {
		if c.Down(i) {
			continue
		}
		m.Drain()
		c.sweep(i)
	}
}

// AdvanceTo advances every up member whose simulated clock is behind t
// (a duration since device start), letting background flushing,
// cleaning, and erasing progress. Members already past t (they served
// more load) are left alone.
func (c *Cluster) AdvanceTo(t time.Duration) {
	for i, m := range c.members {
		if c.Down(i) {
			continue
		}
		if now := m.Now(); now < t {
			m.Idle(t - now)
		}
		c.sweep(i)
	}
}

// Now returns the most advanced member clock — the cluster-wide
// elapsed simulated time.
func (c *Cluster) Now() time.Duration {
	var now time.Duration
	for _, m := range c.members {
		if t := m.Now(); t > now {
			now = t
		}
	}
	return now
}

// Read synchronously reads len(p) bytes at addr (within one page),
// for verification and tooling. It returns the member-observed
// latency.
func (c *Cluster) Read(p []byte, addr uint64) (time.Duration, error) {
	r := Request{Data: p, Addr: addr}
	rt, err := c.route(&r)
	if err != nil {
		return 0, err
	}
	shard := int(rt.member)
	if c.Down(shard) {
		return 0, &ShardDownError{Shard: shard, Err: envy.ErrCrashed}
	}
	localAddr := uint64(rt.local)*uint64(c.pageSize) + addr%uint64(c.pageSize)
	lat, err := c.members[shard].ReadErr(p, localAddr)
	c.sweep(shard)
	return lat, err
}

// sweep checks member shard for a crash it suffered inside a recent
// call and, on the first observation, marks it down and fails its
// pending requests (each completes with *ShardDownError through the
// normal completion path).
func (c *Cluster) sweep(shard int) {
	m := c.members[shard]
	if !m.Crashed() {
		return
	}
	c.mu.Lock()
	first := !c.shards[shard].down
	if first {
		c.shards[shard].down = true
		c.shards[shard].crashes++
	}
	c.mu.Unlock()
	if first {
		m.Drain() // a crashed backend fails, not services, the queue
	}
}

// Down reports whether member shard is currently marked down.
func (c *Cluster) Down(shard int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[shard].down
}

// ArmFault arms a crash-point injector on member shard (§9): the
// member suffers a simulated power failure at the planned point. The
// tier notices on the next interaction with the member.
func (c *Cluster) ArmFault(shard int, plan envy.FaultPlan) {
	c.members[shard].ArmFault(plan)
}

// CrashPowerCycle crashes member shard immediately.
func (c *Cluster) CrashPowerCycle(shard int) {
	c.members[shard].CrashPowerCycle()
	c.sweep(shard)
}

// Recover runs §9 crash recovery on a down member and re-admits it:
// subsequent requests route to it again. Acknowledged writes survive —
// the battery-backed SRAM state is part of the recovery contract.
func (c *Cluster) Recover(shard int) (envy.RecoveryReport, error) {
	m := c.members[shard]
	if !m.Crashed() {
		return envy.RecoveryReport{}, fmt.Errorf("cluster: member %d is not crashed", shard)
	}
	rep, err := m.Recover()
	if err != nil {
		return rep, err
	}
	c.mu.Lock()
	c.shards[shard].down = false
	c.shards[shard].rejoins++
	c.mu.Unlock()
	return rep, nil
}

// CheckAll runs the full invariant suite (invariant.CheckDevice plus
// the public consistency check) on every member. Crashed members fail
// the check — Recover first. The caller must be quiescent: CheckAll
// reads each member's core without the device mutex.
func (c *Cluster) CheckAll() error {
	for i, m := range c.members {
		if err := invariant.CheckDevice(m.Core()); err != nil {
			return fmt.Errorf("cluster: member %d: %w", i, err)
		}
		if err := m.CheckConsistency(); err != nil {
			return fmt.Errorf("cluster: member %d: %w", i, err)
		}
	}
	return nil
}
