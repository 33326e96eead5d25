package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"envy"
	"envy/internal/cluster"
	"envy/internal/sim"
	"envy/internal/tpca"
	"envy/internal/workload"
)

// op is one pre-generated operation. Generation happens outside the
// timed slices; the device only ever sees generated ops.
type op struct {
	write   bool
	key     uint32 // logical page; the 1-based account id on tpca_sat
	val     uint64 // payload word of a write; the balance delta on tpca_sat
	arrival int64  // scheduled arrival, simulated ns (open-loop workloads)
}

// system is one freshly built instance of a workload: the device (or
// cluster), its seeded generators, and the flat oracle.
type system interface {
	// gen fills ops from the seeded generators and stages whatever the
	// slice needs (payloads, request structs) so that exec contains
	// device calls only.
	gen(ops []op)
	// exec issues the ops, storing each op's simulated latency in lat,
	// and returns how many failed or were refused. tr is non-nil on the
	// detailed slices of a traced run.
	exec(ops []op, lat []int64, tr *tracer) (failed int)
	// apply brings the oracle up to date with the slice and checks what
	// the slice's reads returned.
	apply(ops []op) error
	// simNow is the simulated clock in ns.
	simNow() int64
	// counters snapshots the layer counters (deltas since resetStats,
	// except the wear and occupancy gauges).
	counters() counters
	resetStats()
	// verify cuts the power, recovers, runs the consistency checks and
	// reads every written page back against the oracle.
	verify() (checked, lost int, err error)
	// corrupt flips one byte of the oracle, for the self-test.
	corrupt()
	close()
}

// sizes scales one workload; the tiny preset keeps the unit test fast.
type sizes struct {
	pagesPerSegment int // device geometry (tpca_sat has its own, fixed)
	churn           int // aging rewrites per device
	warmSlices      int // untimed slices before measuring
}

// maxSliceOps bounds a slice; each workload picks a slice length under
// it that lasts a few milliseconds.
const maxSliceOps = 1024

// failedLat is the latency sample of a failed or refused op: beyond
// any limit, so it counts as missing the SLO.
const failedLat = int64(1) << 62

func pagePattern(dst []byte, v uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], v+uint64(i))
	}
}

func newDevice(cfg envy.Config) (*envy.Device, int, error) {
	dev, err := envy.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	return dev, int(dev.Size()) / cfg.PageSize, nil
}

// preloadPattern installs pagePattern(initVal(page)) in every logical
// page, one segment-sized chunk at a time.
func preloadPattern(dev *envy.Device, pages, pageSize int, initVal func(uint32) uint64) error {
	const chunk = 256
	buf := make([]byte, chunk*pageSize)
	for p := 0; p < pages; p += chunk {
		n := min(chunk, pages-p)
		for i := 0; i < n; i++ {
			pagePattern(buf[i*pageSize:(i+1)*pageSize], initVal(uint32(p+i)))
		}
		if err := dev.Preload(buf[:n*pageSize], uint64(p)*uint64(pageSize)); err != nil {
			return err
		}
	}
	return nil
}

func initVal(page uint32) uint64 { return uint64(page)<<20 | 0xabc }

// deviceSys is what the three single-device workloads share.
type deviceSys struct{ dev *envy.Device }

func (s deviceSys) simNow() int64      { return int64(s.dev.Now()) }
func (s deviceSys) resetStats()        { s.dev.ResetStats() }
func (s deviceSys) close()             { s.dev.Close() }
func (s deviceSys) counters() counters { return deviceCounters(s.dev) }

// powerFail is the untimed end of every single-device workload.
func (s deviceSys) powerFail() error {
	s.dev.PowerCycle()
	return s.dev.CheckConsistency()
}

// pageOracle is the flat oracle of the page-addressed workloads: the
// value word each page's contents derive from.
type pageOracle struct {
	vals    []uint64
	written []bool
	unknown []bool // cluster only: a write to the page errored, durable state unknown
}

func newPageOracle(pages int) pageOracle {
	o := pageOracle{vals: make([]uint64, pages), written: make([]bool, pages)}
	for p := range o.vals {
		o.vals[p] = initVal(uint32(p))
	}
	return o
}

func (o *pageOracle) set(page uint32, v uint64) { o.vals[page], o.written[page] = v, true }

// checkable reports whether the read-back compares page p.
func (o *pageOracle) checkable(p int) bool {
	return o.written[p] && (o.unknown == nil || !o.unknown[p])
}

// corrupt flips a bit in the word of the first page the read-back will
// check.
func (o *pageOracle) corrupt() {
	for p := range o.vals {
		if o.checkable(p) {
			o.vals[p] ^= 1 << 16
			return
		}
	}
}

// ---------------------------------------------------------------- tpca_sat

type tpcaSys struct {
	deviceSys
	bank *tpca.Bank
	rng  *sim.RNG

	accountsPerTeller int
	// Oracle: expected balance of every record.
	branch, teller, account []int64
}

const tpcaInitialBalance = 1000

func newTPCA(seed uint64, sz sizes) (system, error) {
	cfg := envy.Config{
		PageSize: 256, PagesPerSegment: 128, Segments: 128, Banks: 8,
		Policy: envy.HybridPolicy, PartitionSegments: 16, WearThreshold: 100,
		BufferPages: 2048,
	}
	branches, perTeller := 2, 500 // experiments.Small(): 10,000 accounts
	dev, err := envy.New(cfg)
	if err != nil {
		return nil, err
	}
	bank, err := tpca.Setup(dev.Core(), tpca.Config{
		Branches: branches, AccountsPerTeller: perTeller, InitialBalance: tpcaInitialBalance,
	})
	if err != nil {
		return nil, err
	}
	dev.Core().Churn(sz.churn, 0xa6e)
	s := &tpcaSys{
		deviceSys: deviceSys{dev}, bank: bank, rng: sim.NewRNG(seed),
		accountsPerTeller: perTeller,
		branch:            fill(branches, tpcaInitialBalance),
		teller:            fill(branches*tpca.TellersPerBranch, tpcaInitialBalance),
		account:           fill(bank.Accounts(), tpcaInitialBalance),
	}
	return s, nil
}

func fill(n int, v int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func (s *tpcaSys) gen(ops []op) {
	for i := range ops {
		ops[i] = op{
			write: true,
			key:   uint32(s.rng.Intn(len(s.account)) + 1),
			val:   uint64(int64(s.rng.Intn(1999)) - 999),
		}
	}
}

func (s *tpcaSys) exec(ops []op, lat []int64, tr *tracer) (failed int) {
	core := s.dev.Core()
	for i := range ops {
		sp := tr.begin(spanTransaction, i)
		t0 := core.Now()
		err := s.bank.Transaction(int(ops[i].key), int64(ops[i].val))
		lat[i] = int64(core.Now() - t0)
		if err != nil {
			failed++
			lat[i] = failedLat
		}
		tr.end(sp)
	}
	return failed
}

func (s *tpcaSys) apply(ops []op) error {
	for i := range ops {
		a := int(ops[i].key) - 1
		t := a / s.accountsPerTeller
		d := int64(ops[i].val)
		s.account[a] += d
		s.teller[t] += d
		s.branch[t/tpca.TellersPerBranch] += d
	}
	return nil
}

func (s *tpcaSys) corrupt() { s.account[len(s.account)/2] ^= 1 << 8 }

func (s *tpcaSys) counters() counters {
	c := deviceCounters(s.dev)
	_, _, c.treeHeightAccount = s.bank.TreeHeights()
	return c
}

func (s *tpcaSys) verify() (checked, lost int, err error) {
	if err := s.powerFail(); err != nil {
		return 0, 0, err
	}
	// One account per teller resolves that teller's and branch's
	// record addresses too.
	for a := range s.account {
		aa, ta, ba := s.bank.RecordAddrs(a + 1)
		checked++
		if s.bank.Balance(aa) != s.account[a] {
			lost++
		}
		if a%s.accountsPerTeller == 0 {
			t := a / s.accountsPerTeller
			checked++
			if s.bank.Balance(ta) != s.teller[t] {
				lost++
			}
			if t%tpca.TellersPerBranch == 0 {
				checked++
				if s.bank.Balance(ba) != s.branch[t/tpca.TellersPerBranch] {
					lost++
				}
			}
		}
	}
	return checked, lost, nil
}

// ----------------------------------------------------------- flood_hotcold

type floodSys struct {
	deviceSys
	pageOracle
	pages    workload.Generator
	pageSize int
	seq      uint64

	payload []byte // staged page images, one per op of the slice
	readBuf []byte
}

func newFlood(seed uint64, sz sizes) (system, error) {
	cfg := envy.SmallConfig()
	cfg.PagesPerSegment = sz.pagesPerSegment // 1024 at full size: 32 MB, larger than the buffer and than L2
	dev, pages, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	if err := preloadPattern(dev, pages, cfg.PageSize, initVal); err != nil {
		return nil, err
	}
	dev.Core().Churn(sz.churn, 0xa6e)
	return &floodSys{
		deviceSys:  deviceSys{dev},
		pageOracle: newPageOracle(pages),
		pages:      workload.NewBimodal(sim.Bimodal{HotData: 0.1, HotAccess: 0.9}, pages, seed),
		pageSize:   cfg.PageSize,
		payload:    make([]byte, maxSliceOps*cfg.PageSize),
		readBuf:    make([]byte, cfg.PageSize),
	}, nil
}

func (s *floodSys) gen(ops []op) {
	for i := range ops {
		s.seq++
		ops[i] = op{write: true, key: s.pages.Next(), val: s.seq << 12}
		pagePattern(s.payload[i*s.pageSize:(i+1)*s.pageSize], ops[i].val)
	}
}

func (s *floodSys) exec(ops []op, lat []int64, tr *tracer) (failed int) {
	ps := s.pageSize
	for i := range ops {
		sp := tr.begin(spanWrite, i)
		lat[i] = int64(s.dev.Write(s.payload[i*ps:(i+1)*ps], uint64(ops[i].key)*uint64(ps)))
		tr.end(sp)
	}
	return 0
}

func (s *floodSys) apply(ops []op) error {
	for i := range ops {
		s.set(ops[i].key, ops[i].val)
	}
	return nil
}

func (s *floodSys) verify() (checked, lost int, err error) {
	if err := s.powerFail(); err != nil {
		return 0, 0, err
	}
	want := make([]byte, s.pageSize)
	for p := range s.vals {
		if !s.checkable(p) {
			continue
		}
		checked++
		s.dev.Read(s.readBuf, uint64(p)*uint64(s.pageSize))
		pagePattern(want, s.vals[p])
		if string(want) != string(s.readBuf) {
			lost++
		}
	}
	return checked, lost, nil
}

// ----------------------------------------------------------- read_zipf_q16

// openLoop is the arrival process shared by the two open-loop
// workloads: Poisson arrivals at a fixed rate on the simulated clock.
type openLoop struct {
	rng  *sim.RNG
	mean sim.Duration
	t    int64
}

func (o *openLoop) next() int64 {
	o.t += int64(o.rng.Exp(o.mean))
	return o.t
}

type zipfSys struct {
	deviceSys
	pageOracle
	mix      *workload.Mix
	arr      openLoop
	pageSize int
	seq      uint64

	reqs []envy.Request
	data []byte // 8 bytes per staged request
}

const accessBytes = 8

func newZipf(seed uint64, sz sizes, rate float64) (system, error) {
	cfg := envy.SmallConfig()
	cfg.HostQueueDepth = 16
	cfg.PagesPerSegment = sz.pagesPerSegment
	dev, pages, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	if err := preloadPattern(dev, pages, cfg.PageSize, initVal); err != nil {
		return nil, err
	}
	dev.Core().Churn(sz.churn, 0xa6e)
	s := &zipfSys{
		deviceSys:  deviceSys{dev},
		pageOracle: newPageOracle(pages),
		mix:        workload.NewMix(workload.NewZipfian(pages, 0.99, seed), 0.95, seed+0x9e3779b97f4a7c15),
		arr:        openLoop{rng: sim.NewRNG(seed ^ 0xa771), mean: sim.Duration(1e9 / rate)},
		pageSize:   cfg.PageSize,
		reqs:       make([]envy.Request, maxSliceOps),
		data:       make([]byte, maxSliceOps*accessBytes),
	}
	// Dirty enough distinct pages that the write buffer sits above its
	// flush high-water mark: the 5% of writes in the mix alone would
	// take most of a run to get there.
	rng := sim.NewRNG(seed ^ 0xd127)
	var word [accessBytes]byte
	for i := 0; i < cfg.BufferPages*4/5; i++ {
		p := uint32(rng.Intn(pages))
		s.seq++
		v := s.seq << 12
		binary.LittleEndian.PutUint64(word[:], v)
		dev.Write(word[:], uint64(p)*uint64(cfg.PageSize))
		s.set(p, v)
	}
	s.arr.t = int64(dev.Now())
	return s, nil
}

func (s *zipfSys) gen(ops []op) {
	for i := range ops {
		o := s.mix.NextOp()
		s.seq++
		ops[i] = op{write: o.Write, key: o.Page, val: s.seq << 12, arrival: s.arr.next()}
		d := s.data[i*accessBytes : (i+1)*accessBytes]
		if o.Write {
			binary.LittleEndian.PutUint64(d, ops[i].val)
		}
		s.reqs[i] = envy.Request{Write: o.Write, Addr: uint64(o.Page) * uint64(s.pageSize), Data: d}
	}
}

func (s *zipfSys) exec(ops []op, lat []int64, tr *tracer) (failed int) {
	dev := s.dev
	for i := range ops {
		if now := int64(dev.Now()); ops[i].arrival > now {
			sp := tr.begin(spanIdle, i)
			dev.Idle(time.Duration(ops[i].arrival - now))
			tr.end(sp)
		}
		sp := tr.begin(spanSubmit, i)
		if err := dev.Submit(&s.reqs[i]); err != nil {
			s.reqs[i].Err = err
		}
		tr.end(sp)
	}
	for i := range ops {
		r := &s.reqs[i]
		if r.Done() != nil { // nil: refused at Submit
			sp := tr.begin(spanWait, i)
			dev.Wait(r)
			tr.end(sp)
			lat[i] = int64(r.Completion) - ops[i].arrival
		}
		if r.Err != nil {
			failed++
			lat[i] = failedLat
		}
	}
	return failed
}

func (s *zipfSys) apply(ops []op) error {
	for i := range ops {
		o := &ops[i]
		if s.reqs[i].Err != nil {
			continue
		}
		if o.write {
			s.set(o.key, o.val)
		} else if got := binary.LittleEndian.Uint64(s.reqs[i].Data); got != s.vals[o.key] {
			return fmt.Errorf("read of page %d returned %#x, oracle has %#x", o.key, got, s.vals[o.key])
		}
	}
	return nil
}

func (s *zipfSys) verify() (checked, lost int, err error) {
	s.dev.Drain()
	if err := s.powerFail(); err != nil {
		return 0, 0, err
	}
	var word [accessBytes]byte
	for p := range s.vals {
		if !s.checkable(p) {
			continue
		}
		checked++
		s.dev.Read(word[:], uint64(p)*uint64(s.pageSize))
		if binary.LittleEndian.Uint64(word[:]) != s.vals[p] {
			lost++
		}
	}
	return checked, lost, nil
}

// ---------------------------------------------------------- cluster4_ycsba

const (
	clusterMembers = 4
	clusterBatch   = 8
	crashMember    = 1
)

type clusterSys struct {
	c        *cluster.Cluster
	mix      *workload.Mix
	arr      openLoop
	pageSize int
	seq      uint64

	reqs []cluster.Request
	ptrs []*cluster.Request
	data []byte

	pageOracle
	corruptAtReadBack bool
}

func newCluster(seed uint64, sz sizes, rate float64) (system, error) {
	// Every knob the workload depends on is pinned here, not inherited
	// from cluster.DefaultMemberConfig, so a later change to those
	// defaults cannot move this workload.
	mc := envy.SmallConfig()
	mc.ParallelFlush = 8
	mc.HostQueueDepth = 8
	mc.AdaptiveDepth = false
	mc.PagesPerSegment = sz.pagesPerSegment
	c, err := cluster.New(cluster.Config{Members: clusterMembers, Member: mc, Placement: cluster.HashRing})
	if err != nil {
		return nil, err
	}
	pages := c.Pages()
	mix, err := workload.YCSB("a", pages, 0.9, seed)
	if err != nil {
		return nil, err
	}
	s := &clusterSys{
		c:          c,
		mix:        mix,
		arr:        openLoop{rng: sim.NewRNG(seed ^ 0xa771), mean: sim.Duration(1e9 / rate)},
		pageSize:   mc.PageSize,
		reqs:       make([]cluster.Request, maxSliceOps),
		ptrs:       make([]*cluster.Request, maxSliceOps),
		data:       make([]byte, maxSliceOps*accessBytes),
		pageOracle: pageOracle{vals: make([]uint64, pages), written: make([]bool, pages), unknown: make([]bool, pages)},
	}
	for i := range s.ptrs {
		s.ptrs[i] = &s.reqs[i]
	}
	// The placement directory is private, so members are preloaded
	// directly and the oracle learns each namespace page's initial word
	// by reading it through the tier.
	memberPages := int(c.Device(0).Size()) / mc.PageSize
	for i := 0; i < clusterMembers; i++ {
		m := uint64(i+1) << 40
		if err := preloadPattern(c.Device(i), memberPages, mc.PageSize, func(p uint32) uint64 { return m | initVal(p) }); err != nil {
			return nil, err
		}
		c.Device(i).Core().Churn(sz.churn, 0xa6e+uint64(i))
	}
	var word [accessBytes]byte
	for p := range s.vals {
		if _, err := c.Read(word[:], uint64(p)*uint64(mc.PageSize)); err != nil {
			return nil, err
		}
		s.vals[p] = binary.LittleEndian.Uint64(word[:])
	}
	s.arr.t = int64(c.Now())
	return s, nil
}

func (s *clusterSys) stage(i int, o *op) {
	d := s.data[i*accessBytes : (i+1)*accessBytes]
	if o.write {
		binary.LittleEndian.PutUint64(d, o.val)
	}
	s.reqs[i] = cluster.Request{Write: o.write, Addr: uint64(o.key) * uint64(s.pageSize), Data: d}
}

func (s *clusterSys) gen(ops []op) {
	for i := range ops {
		o := s.mix.NextOp()
		s.seq++
		ops[i] = op{write: o.Write, key: o.Page, val: s.seq<<12 | 1, arrival: s.arr.next()}
		s.stage(i, &ops[i])
	}
}

func (s *clusterSys) exec(ops []op, lat []int64, tr *tracer) (failed int) {
	c := s.c
	for i := 0; i < len(ops); i += clusterBatch {
		j := min(i+clusterBatch, len(ops))
		// As in cluster.RunLoad, a batch is submitted at the arrival
		// instant of its last member.
		sp := tr.begin(spanAdvanceTo, i)
		c.AdvanceTo(time.Duration(ops[j-1].arrival))
		tr.end(sp)
		sp = tr.begin(spanSubmitAll, i)
		if err := c.SubmitAll(s.ptrs[i:j]...); err != nil {
			for k := i; k < j; k++ {
				if s.reqs[k].Done() == nil {
					s.reqs[k].Err = err
				}
			}
		}
		tr.end(sp)
	}
	for i := range ops {
		r := &s.reqs[i]
		if r.Done() != nil { // nil: refused at SubmitAll
			sp := tr.begin(spanClusterWait, i)
			c.Wait(r)
			tr.end(sp)
			lat[i] = int64(r.Completion) - ops[i].arrival
		}
		if r.Err != nil {
			failed++
			lat[i] = failedLat
		}
	}
	return failed
}

func (s *clusterSys) apply(ops []op) error {
	for i := range ops {
		o := &ops[i]
		switch {
		case s.reqs[i].Err != nil:
			if o.write {
				s.unknown[o.key] = true
			}
		case o.write:
			s.set(o.key, o.val)
			s.unknown[o.key] = false
		case !s.unknown[o.key]:
			if got := binary.LittleEndian.Uint64(s.reqs[i].Data); got != s.vals[o.key] {
				return fmt.Errorf("read of page %d returned %#x, oracle has %#x", o.key, got, s.vals[o.key])
			}
		}
	}
	return nil
}

func (s *clusterSys) simNow() int64 { return int64(s.c.Now()) }
func (s *clusterSys) resetStats()   { s.c.ResetStats() }

func (s *clusterSys) close() {
	for i := 0; i < clusterMembers; i++ {
		s.c.Device(i).Close()
	}
}

// corrupt takes effect at the read-back: the tail of traffic that
// triggers the armed fault would otherwise overwrite the flipped word.
func (s *clusterSys) corrupt() { s.corruptAtReadBack = true }

func (s *clusterSys) counters() counters {
	st := s.c.Stats()
	members := make([]counters, len(st.Shards))
	var maxOps, sumOps int64
	for i := range st.Shards {
		members[i] = statsCounters(st.Shards[i].Device)
		cc := s.c.Device(i).Core().Counters()
		members[i].mmuHits, members[i].mmuMisses = cc.MMUHits, cc.MMUMisses
		sumOps += st.Shards[i].Submitted
		maxOps = max(maxOps, st.Shards[i].Submitted)
	}
	c := mergeCounters(members)
	c.hostP50, c.hostP99 = int64(st.P50), int64(st.P99)
	c.clusterSubmitted = st.Submitted
	c.clusterBackpressured = st.Backpressured
	c.clusterRejected = st.Rejected
	c.clusterP99 = int64(st.P99)
	if sumOps > 0 {
		c.shardImbalance = float64(maxOps) * float64(len(st.Shards)) / float64(sumOps)
	}
	return c
}

// verify arms a fault on one member so that its next flash program
// cuts the power mid-operation, keeps traffic flowing until the tier
// notices, recovers the member and reads everything back.
func (s *clusterSys) verify() (checked, lost int, err error) {
	s.c.Drain()
	s.c.ArmFault(crashMember, envy.FaultPlan{Program: 1})
	ops := make([]op, maxSliceOps)
	lat := make([]int64, maxSliceOps)
	for tail := 0; tail < 64 && !s.c.Down(crashMember); tail++ {
		s.gen(ops)
		s.exec(ops, lat, nil)
		if err := s.apply(ops); err != nil {
			return 0, 0, err
		}
	}
	if !s.c.Down(crashMember) {
		s.c.CrashPowerCycle(crashMember)
	}
	if _, err := s.c.Recover(crashMember); err != nil {
		return 0, 0, err
	}
	s.c.Drain()
	if err := s.c.CheckAll(); err != nil {
		return 0, 0, err
	}
	if s.corruptAtReadBack {
		s.pageOracle.corrupt()
	}
	var word [accessBytes]byte
	for p := range s.vals {
		if !s.checkable(p) {
			continue
		}
		checked++
		if _, err := s.c.Read(word[:], uint64(p)*uint64(s.pageSize)); err != nil {
			lost++
			continue
		}
		if binary.LittleEndian.Uint64(word[:]) != s.vals[p] {
			lost++
		}
	}
	return checked, lost, nil
}
