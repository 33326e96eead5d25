package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"envy"
	"envy/internal/sim"
	"envy/internal/workload"
)

// Load describes one deterministic cluster run: an operation mix, an
// open-loop arrival process, optional mid-load crash/recover events on
// one member, and optional end-of-run verification.
type Load struct {
	// Gen supplies the operation stream (required). Its page space
	// should not exceed the cluster's.
	Gen workload.OpGenerator

	// Rate is the offered arrival rate in operations per second of
	// simulated time (required, > 0). Arrivals are exponential
	// (open-loop Poisson), scaled by Schedule when present.
	Rate float64

	// Schedule shapes Rate over time (nil = constant).
	Schedule workload.Schedule

	// Ops is how many operations to offer (required, > 0).
	Ops int

	// OpBytes is the access size in bytes (default 8, minimum 8 — the
	// verification payload needs room for a sequence number).
	OpBytes int

	// Batch is how many arrivals are grouped into one SubmitAll
	// (default 8).
	Batch int

	// Seed drives the arrival process.
	Seed uint64

	// CrashShard, when CrashAtOp > 0, selects the member to crash:
	// at operation CrashAtOp a FaultPlan{Program: 1} is armed (the
	// member dies at its next flash program — mid-load, not at a
	// quiescent point), and at operation RecoverAtOp the member is
	// power-cycled if the fault never fired, recovered, and
	// re-admitted. RecoverAtOp beyond Ops recovers after the load.
	CrashShard  int
	CrashAtOp   int
	RecoverAtOp int

	// Verify tracks every acknowledged write in a model and reads the
	// touched pages back after the run: any mismatch is a lost
	// acknowledged write.
	Verify bool

	// Check runs CheckAll (invariant.CheckDevice on every member)
	// after the drain.
	Check bool
}

// LoadResult is one run's outcome.
type LoadResult struct {
	Workload string

	// Request accounting, from the driver's own completion hooks.
	Offered       int
	Completed     int64
	Acked         int64
	Failed        int64
	Rejected      int64
	Backpressured int64

	// Elapsed is simulated time from run start to the post-drain
	// quiescent point (the most advanced member clock); TPS is
	// Completed/Elapsed.
	Elapsed time.Duration
	TPS     float64

	// Cluster-observed sojourn latency (acknowledged requests).
	P50, P95, P99, Max time.Duration

	// Crash timeline (zero values when no crash was requested):
	// offsets on the simulated clock at arm, first observed down
	// marking, rejoin (Recover returned), and post-run drain
	// completion. DrainTime is DrainedAt − RejoinedAt: how long the
	// recovered cluster took to drain back to quiescence.
	CrashShard      int
	Crashed         bool
	CrashArmedAt    time.Duration
	CrashDetectedAt time.Duration
	RejoinedAt      time.Duration
	DrainedAt       time.Duration
	DrainTime       time.Duration
	Recovery        envy.RecoveryReport

	// Verification (Load.Verify): pages read back and acknowledged
	// writes found missing. The §9 contract is LostAcked == 0.
	VerifiedWrites int
	LostAcked      int
}

// RunLoad drives c with l and returns the run's measurements. The run
// is a pure function of (cluster state, l): same seed, same result.
func RunLoad(c *Cluster, l Load) (LoadResult, error) {
	if l.Gen == nil || l.Rate <= 0 || l.Ops <= 0 {
		return LoadResult{}, fmt.Errorf("cluster: load needs Gen, Rate > 0, and Ops > 0")
	}
	if l.OpBytes == 0 {
		l.OpBytes = 8
	}
	if l.OpBytes < 8 || l.OpBytes > c.pageSize {
		return LoadResult{}, fmt.Errorf("cluster: OpBytes %d out of range [8, %d]", l.OpBytes, c.pageSize)
	}
	if l.Batch <= 0 {
		l.Batch = 8
	}
	if l.Gen.Pages() > c.Pages() {
		return LoadResult{}, fmt.Errorf("cluster: workload spans %d pages, namespace has %d", l.Gen.Pages(), c.Pages())
	}
	crash := l.CrashAtOp > 0
	if crash && (l.CrashShard < 0 || l.CrashShard >= len(c.members)) {
		return LoadResult{}, fmt.Errorf("cluster: crash shard %d out of range", l.CrashShard)
	}

	res := LoadResult{Workload: l.Gen.String(), Offered: l.Ops, CrashShard: -1}
	rng := sim.NewRNG(l.Seed)
	start := c.Now()
	t := start

	var model map[uint32][]byte
	if l.Verify {
		model = make(map[uint32][]byte)
	}

	// Completion hooks run inside member device calls: they must touch
	// only driver-local state (never call back into the cluster).
	account := func(r *Request, page uint32, payload []byte) {
		res.Completed++
		if r.Backpressured {
			res.Backpressured++
		}
		switch {
		case r.Err == nil:
			res.Acked++
			if model != nil && r.Write {
				model[page] = payload
			}
		default:
			if _, isDown := r.Err.(*ShardDownError); isDown && r.local {
				res.Rejected++
			} else {
				res.Failed++
			}
			// An errored write may or may not have reached the page:
			// its durable state is unknown, so the model forgets it.
			if model != nil && r.Write {
				delete(model, page)
			}
		}
	}

	batch := make([]*Request, 0, l.Batch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		c.AdvanceTo(t)
		if err := c.SubmitAll(batch...); err != nil {
			return err
		}
		batch = batch[:0]
		if crash && res.Crashed && res.CrashDetectedAt == 0 && c.Down(l.CrashShard) {
			res.CrashDetectedAt = c.Now() - start
		}
		return nil
	}

	recoverShard := func() error {
		if err := flush(); err != nil {
			return err
		}
		if !c.members[l.CrashShard].Crashed() {
			// The armed fault never fired (a read-heavy mix may not
			// program flash in the window); force the power failure so
			// the recover path still runs.
			c.CrashPowerCycle(l.CrashShard)
		}
		if res.CrashDetectedAt == 0 {
			res.CrashDetectedAt = c.Now() - start
		}
		rep, err := c.Recover(l.CrashShard)
		if err != nil {
			return err
		}
		res.Recovery = rep
		res.RejoinedAt = c.Now() - start
		return nil
	}

	recovered := false
	for i := 0; i < l.Ops; i++ {
		if crash && i == l.CrashAtOp {
			if err := flush(); err != nil {
				return res, err
			}
			c.ArmFault(l.CrashShard, envy.FaultPlan{Program: 1})
			res.Crashed = true
			res.CrashShard = l.CrashShard
			res.CrashArmedAt = c.Now() - start
		}
		if crash && i == l.RecoverAtOp && res.Crashed {
			if err := recoverShard(); err != nil {
				return res, err
			}
			recovered = true
		}

		scale := 1.0
		if l.Schedule != nil {
			scale = l.Schedule.RateScale(sim.Time(t))
			if scale < 0.01 {
				scale = 0.01
			}
		}
		t += time.Duration(rng.Exp(sim.Duration(float64(time.Second) / (l.Rate * scale))))

		op := l.Gen.NextOp()
		page := op.Page
		data := make([]byte, l.OpBytes)
		if op.Write {
			binary.LittleEndian.PutUint64(data, uint64(i)+1)
		}
		payload := data
		r := &Request{Write: op.Write, Addr: uint64(page) * uint64(c.pageSize), Data: data}
		r.OnComplete = func(r *Request) { account(r, page, payload) }
		batch = append(batch, r)
		if len(batch) == l.Batch {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	if err := flush(); err != nil {
		return res, err
	}
	if crash && res.Crashed && !recovered {
		if err := recoverShard(); err != nil {
			return res, err
		}
	}
	c.Drain()
	res.DrainedAt = c.Now() - start
	if res.RejoinedAt > 0 {
		res.DrainTime = res.DrainedAt - res.RejoinedAt
	}
	res.Elapsed = c.Now() - start
	if res.Elapsed > 0 {
		res.TPS = float64(res.Completed) / res.Elapsed.Seconds()
	}

	st := c.Stats()
	res.P50, res.P95, res.P99, res.Max = st.P50, st.P95, st.P99, st.Max

	if model != nil {
		pages := make([]uint32, 0, len(model))
		for page := range model {
			pages = append(pages, page)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		buf := make([]byte, l.OpBytes)
		for _, page := range pages {
			res.VerifiedWrites++
			if _, err := c.Read(buf, uint64(page)*uint64(c.pageSize)); err != nil {
				res.LostAcked++
				continue
			}
			if string(buf) != string(model[page]) {
				res.LostAcked++
			}
		}
	}
	if l.Check {
		if err := c.CheckAll(); err != nil {
			return res, err
		}
	}
	return res, nil
}
