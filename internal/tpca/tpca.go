// Package tpca implements the TPC-A banking workload the paper drives
// its simulator with (§5.2).
//
// The database models banks, tellers, and accounts: for every branch
// there are 10 tellers, each responsible for 10,000 accounts, with a
// 100-byte balance record per entity. Three 32-way B-trees index the
// records. A transaction picks a uniformly distributed account,
// searches all three trees, and atomically updates the three balance
// records. Transaction arrivals are exponentially distributed at the
// requested rate, forming an open system: past the device's capacity,
// completed throughput saturates (Figure 13) and write latency jumps
// (Figure 15).
package tpca

import (
	"encoding/binary"
	"fmt"

	"envy/internal/btree"
	"envy/internal/core"
	"envy/internal/host"
	"envy/internal/sim"
	"envy/internal/stats"
)

// RecordBytes is the size of each balance record (§5.2).
const RecordBytes = 100

// Config scales and paces the workload.
type Config struct {
	// Branches scales the database: Branches×10 tellers and
	// Branches×TellersPerBranch×AccountsPerTeller accounts. The paper
	// simulates 155 branches (15.5 million accounts) on 2 GB.
	Branches int

	// AccountsPerTeller allows scaled-down databases for small devices
	// (default 10,000, the TPC-A ratio).
	AccountsPerTeller int

	// Seed drives account selection and arrival times.
	Seed uint64

	// InitialBalance is preloaded into every record.
	InitialBalance int64
}

// TellersPerBranch is fixed by the TPC-A specification.
const TellersPerBranch = 10

func (c *Config) setDefaults() error {
	if c.Branches <= 0 {
		return fmt.Errorf("tpca: Branches must be positive, got %d", c.Branches)
	}
	if c.AccountsPerTeller == 0 {
		c.AccountsPerTeller = 10000
	}
	if c.AccountsPerTeller < 0 {
		return fmt.Errorf("tpca: AccountsPerTeller must be positive")
	}
	return nil
}

// Bank is a TPC-A database resident in an eNVy device.
type Bank struct {
	dev *core.Device
	cfg Config

	tellers  int
	accounts int

	branchBase, tellerBase, accountBase uint64

	branchTree, tellerTree, accountTree *btree.Tree
}

// Setup lays the database out in the device's logical space and bulk
// loads records and index trees without simulated time (the initial
// database load). It fails if the database does not fit.
func Setup(dev *core.Device, cfg Config) (*Bank, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	b := &Bank{
		dev:      dev,
		cfg:      cfg,
		tellers:  cfg.Branches * TellersPerBranch,
		accounts: cfg.Branches * TellersPerBranch * cfg.AccountsPerTeller,
	}

	treeBytes := func(keys int) uint64 {
		leaves := uint64(keys)/(btree.Fanout-2) + 1
		// Total nodes ≈ leaves × fanout/(fanout-1), plus slack.
		nodes := leaves + leaves/(btree.Fanout-2) + 8
		return (nodes*btree.NodeBytes)*3/2 + 64
	}

	cursor := uint64(0)
	alloc := func(n uint64) uint64 {
		base := cursor
		cursor += n
		// Keep regions page-aligned for tidy copy-on-write behaviour.
		const align = 256
		cursor = (cursor + align - 1) &^ (align - 1)
		return base
	}
	b.branchBase = alloc(uint64(cfg.Branches) * RecordBytes)
	b.tellerBase = alloc(uint64(b.tellers) * RecordBytes)
	b.accountBase = alloc(uint64(b.accounts) * RecordBytes)
	branchTreeBase := alloc(treeBytes(cfg.Branches))
	tellerTreeBase := alloc(treeBytes(b.tellers))
	accountTreeBase := alloc(treeBytes(b.accounts))
	if cursor > uint64(dev.Size()) {
		return nil, fmt.Errorf("tpca: database needs %d bytes but device has %d", cursor, dev.Size())
	}

	// Preload records page by page.
	if err := b.loadRecords(b.branchBase, cfg.Branches); err != nil {
		return nil, err
	}
	if err := b.loadRecords(b.tellerBase, b.tellers); err != nil {
		return nil, err
	}
	if err := b.loadRecords(b.accountBase, b.accounts); err != nil {
		return nil, err
	}

	var err error
	if b.branchTree, err = b.loadTree(branchTreeBase, tellerTreeBase, cfg.Branches, b.branchBase); err != nil {
		return nil, err
	}
	if b.tellerTree, err = b.loadTree(tellerTreeBase, accountTreeBase, b.tellers, b.tellerBase); err != nil {
		return nil, err
	}
	if b.accountTree, err = b.loadTree(accountTreeBase, cursor, b.accounts, b.accountBase); err != nil {
		return nil, err
	}
	return b, nil
}

// loadRecords preloads n records with the initial balance in their
// first 8 bytes.
func (b *Bank) loadRecords(base uint64, n int) error {
	const chunkRecords = 1024
	buf := make([]byte, chunkRecords*RecordBytes)
	for i := 0; i < n; i += chunkRecords {
		count := chunkRecords
		if i+count > n {
			count = n - i
		}
		chunk := buf[:count*RecordBytes]
		for j := range chunk {
			chunk[j] = 0
		}
		for j := 0; j < count; j++ {
			binary.LittleEndian.PutUint64(chunk[j*RecordBytes:], uint64(b.cfg.InitialBalance))
		}
		if err := b.dev.Preload(chunk, base+uint64(i)*RecordBytes); err != nil {
			return err
		}
	}
	return nil
}

// loadTree bulk-loads an index tree mapping id -> record address.
func (b *Bank) loadTree(base, limit uint64, n int, recordBase uint64) (*btree.Tree, error) {
	pairs := make([]btree.KV, n)
	for i := 0; i < n; i++ {
		pairs[i] = btree.KV{Key: uint64(i) + 1, Value: recordBase + uint64(i)*RecordBytes}
	}
	return btree.Load(b.dev, base, limit, pairs)
}

// Device returns the underlying device.
func (b *Bank) Device() *core.Device { return b.dev }

// Accounts returns the number of account records.
func (b *Bank) Accounts() int { return b.accounts }

// TreeHeights returns the branch, teller, and account index depths
// (2/3/5 at paper scale, Figure 12).
func (b *Bank) TreeHeights() (branch, teller, account int) {
	return b.branchTree.Height(), b.tellerTree.Height(), b.accountTree.Height()
}

// Balance reads a record's balance through the device (timed).
func (b *Bank) Balance(recordAddr uint64) int64 {
	var buf [8]byte
	b.dev.Read(buf[:], recordAddr)
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// addBalance applies a delta to the balance word of a record: one
// 8-byte read plus one 8-byte write, the record modification of §5.2.
func (b *Bank) addBalance(recordAddr uint64, delta int64) {
	var buf [8]byte
	b.dev.Read(buf[:], recordAddr)
	v := int64(binary.LittleEndian.Uint64(buf[:])) + delta
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	b.dev.Write(buf[:], recordAddr)
}

// addBalanceVia is addBalance through a multi-outstanding host queue:
// the read is submitted and waited for (the engine's write fence
// guarantees it observes any still-queued write to the record), the
// write is submitted without waiting — a blocked buffer defers it
// behind the next transaction's reads instead of stalling the host.
func (b *Bank) addBalanceVia(eng *host.Engine, recordAddr uint64, delta int64) error {
	r := &host.Request{Addr: recordAddr, Data: make([]byte, 8)}
	eng.Submit(r)
	eng.ServeUntilDone(r)
	if r.Err != nil {
		return r.Err
	}
	v := int64(binary.LittleEndian.Uint64(r.Data)) + delta
	w := &host.Request{Write: true, Addr: recordAddr, Data: make([]byte, 8)}
	binary.LittleEndian.PutUint64(w.Data, uint64(v))
	eng.Submit(w)
	return nil
}

// Transaction executes one TPC-A transaction against account id
// (1-based): three index searches, three balance updates.
func (b *Bank) Transaction(account int, delta int64) error {
	return b.transactionVia(nil, account, delta)
}

// transactionVia runs one transaction, routing the balance updates
// through eng when non-nil. Index searches stay synchronous either
// way: transactions never write tree pages, so tree reads need no
// fencing against queued record writes.
func (b *Bank) transactionVia(eng *host.Engine, account int, delta int64) error {
	teller := (account-1)/b.cfg.AccountsPerTeller + 1
	branch := (teller-1)/TellersPerBranch + 1

	accountAddr, ok := b.accountTree.Search(uint64(account))
	if !ok {
		return fmt.Errorf("tpca: account %d not indexed", account)
	}
	tellerAddr, ok := b.tellerTree.Search(uint64(teller))
	if !ok {
		return fmt.Errorf("tpca: teller %d not indexed", teller)
	}
	branchAddr, ok := b.branchTree.Search(uint64(branch))
	if !ok {
		return fmt.Errorf("tpca: branch %d not indexed", branch)
	}
	if eng == nil {
		b.addBalance(accountAddr, delta)
		b.addBalance(tellerAddr, delta)
		b.addBalance(branchAddr, delta)
		return nil
	}
	if err := b.addBalanceVia(eng, accountAddr, delta); err != nil {
		return err
	}
	if err := b.addBalanceVia(eng, tellerAddr, delta); err != nil {
		return err
	}
	return b.addBalanceVia(eng, branchAddr, delta)
}

// RecordAddrs resolves the record addresses for an account id, for
// verification in tests.
func (b *Bank) RecordAddrs(account int) (accountAddr, tellerAddr, branchAddr uint64) {
	teller := (account-1)/b.cfg.AccountsPerTeller + 1
	branch := (teller-1)/TellersPerBranch + 1
	accountAddr = b.accountBase + uint64(account-1)*RecordBytes
	tellerAddr = b.tellerBase + uint64(teller-1)*RecordBytes
	branchAddr = b.branchBase + uint64(branch-1)*RecordBytes
	return
}

// Results summarizes a driven run.
type Results struct {
	Offered   float64 // requested transaction rate (TPS)
	Completed int64
	Duration  sim.Duration
	TPS       float64 // completed transactions per simulated second

	TxnLatency stats.Latency // arrival-to-completion

	ReadMean, WriteMean sim.Duration
	ReadP99, WriteP99   sim.Duration

	Counters  stats.Counters
	Breakdown stats.Breakdown

	FlushPagesPerSec float64
	CleaningCost     float64

	// Host-queue sojourn latencies of the balance-record accesses, when
	// the driver was built with NewDriverDepth (zero otherwise).
	HostRequests                       int64
	HostP50, HostP95, HostP99, HostMax sim.Duration
	HostMeanDepth                      float64

	// Adaptive-depth telemetry (the configured depth unless the driver
	// was built with NewDriverAdaptive).
	HostEffectiveDepth int // admission bound at run end (relaxed during drain)
	HostMinEffDepth    int // deepest mid-run throttle the controller reached

	// Suspensions counts background operations suspended by host
	// accesses during the run (the §3.4 preemption).
	Suspensions int64
}

// Driver paces transactions at a mean arrival rate against a Bank.
type Driver struct {
	bank *Bank
	rng  *sim.RNG
	eng  *host.Engine // nil: the single-outstanding legacy path
}

// NewDriver returns a driver using the bank's config seed.
func NewDriver(bank *Bank) *Driver {
	return &Driver{bank: bank, rng: sim.NewRNG(bank.cfg.Seed ^ 0x7043412d41)}
}

// NewDriverDepth returns a driver issuing balance updates through a
// host queue of the given depth. At depth 1 the queue services every
// request synchronously through the classic path — results are
// bit-identical to NewDriver, with the sojourn histograms filled in;
// above 1 the device also switches to bank-aware suspension.
func NewDriverDepth(bank *Bank, depth int) *Driver {
	dr := NewDriver(bank)
	bank.dev.SetHostConcurrency(depth)
	dr.eng = host.New(bank.dev, depth, bank.dev.Geometry().PageSize)
	return dr
}

// NewDriverAdaptive returns a depth driver with the adaptive queue
// depth controller on: the engine throttles its effective admission
// depth against the device's suspend/resume churn.
func NewDriverAdaptive(bank *Bank, depth int) *Driver {
	dr := NewDriverDepth(bank, depth)
	if !dr.eng.EnableAdaptive() {
		panic("tpca: backend does not expose the suspension counter")
	}
	return dr
}

// Run offers transactions at rate TPS (exponential inter-arrival) for
// the given simulated duration and returns the measured results. The
// device's stats are reset at the start so results reflect this run
// only; call it repeatedly for staged warm-up and measurement.
func (dr *Driver) Run(rate float64, duration sim.Duration) (Results, error) {
	dev := dr.bank.dev
	dev.ResetStats()
	if dr.eng != nil {
		dr.eng.ResetStats()
	}
	res := Results{Offered: rate, Duration: duration}
	start := dev.Now()
	end := start.Add(duration)
	mean := sim.Duration(1e9 / rate)

	arrival := start.Add(dr.rng.Exp(mean))
	for arrival < end {
		if arrival > dev.Now() {
			// The device caught up: let an idle gap service queued writes
			// before background work.
			if dr.eng != nil {
				dr.eng.RunUntil(arrival)
			}
			dev.AdvanceTo(arrival)
		}
		account := dr.rng.Intn(dr.bank.accounts) + 1
		delta := int64(dr.rng.Intn(1999)) - 999
		if err := dr.bank.transactionVia(dr.eng, account, delta); err != nil {
			return res, err
		}
		res.TxnLatency.Record(dev.Now().Sub(arrival))
		res.Completed++
		arrival = arrival.Add(dr.rng.Exp(mean))
	}
	if dr.eng != nil {
		dr.eng.Drain()
	}
	if end > dev.Now() {
		dev.AdvanceTo(end)
	}
	elapsed := dev.Now().Sub(start)
	res.TPS = float64(res.Completed) / elapsed.Seconds()
	res.ReadMean = dev.ReadLatency().Mean()
	res.WriteMean = dev.WriteLatency().Mean()
	res.ReadP99 = dev.ReadLatency().Percentile(99)
	res.WriteP99 = dev.WriteLatency().Percentile(99)
	res.Counters = dev.Counters()
	res.Breakdown = dev.Breakdown()
	res.FlushPagesPerSec = float64(res.Counters.Flushes) / elapsed.Seconds()
	res.CleaningCost = res.Counters.CleaningCost()
	if dr.eng != nil {
		hl := dr.eng.Latency()
		res.HostRequests = dr.eng.Served()
		res.HostP50 = hl.Percentile(50)
		res.HostP95 = hl.Percentile(95)
		res.HostP99 = hl.Percentile(99)
		res.HostMax = hl.Max()
		res.HostMeanDepth = dr.eng.MeanDepth()
		res.HostEffectiveDepth = dr.eng.EffectiveDepth()
		res.HostMinEffDepth = dr.eng.MinEffectiveDepth()
	}
	res.Suspensions = dev.Suspensions()
	return res, nil
}
