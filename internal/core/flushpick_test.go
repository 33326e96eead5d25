package core

import (
	"fmt"
	"testing"

	"envy/internal/cleaner"
	"envy/internal/fault"
	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/sram"
)

// The flush pick's reference implementation: the walk of the whole
// buffer FIFO that selectFlushFrame performed before the buffer kept a
// flush-candidate index. It lives here, and only here, so the index can
// be checked against it pick by pick.

// scanOldest is Oldest as a FIFO walk: the first frame from the tail
// that is not mid-flush.
func scanOldest(d *Device) *sram.Frame {
	var found *sram.Frame
	d.buf.Frames(func(f *sram.Frame) bool {
		if !f.Flushing() {
			found = f
		}
		return found == nil
	})
	return found
}

// scanPick is the bank-aware pick as a FIFO walk: the oldest frame
// whose predicted flush target sits on a bank that no in-flight flush
// is already programming and no running operation occupies.
func scanPick(d *Device) *sram.Frame {
	var found *sram.Frame
	d.buf.Frames(func(f *sram.Frame) bool {
		if f.Flushing() || f.Home < 0 || f.Home >= d.eng.Partitions() {
			return true
		}
		seg := d.eng.PeekFlushSegment(f.Home)
		if seg < 0 {
			return true
		}
		bank := d.cfg.Geometry.BankOf(seg)
		if d.inflightBank[bank] != 0 || (d.hostConc == 1 && d.banks.Busy(bank)) {
			return true
		}
		found = f
		return false
	})
	return found
}

func scanSelect(d *Device) *sram.Frame {
	if d.cfg.ParallelFlush > 1 {
		if f := scanPick(d); f != nil {
			return f
		}
	}
	return scanOldest(d)
}

// checkedPolicy wraps the device's write-back policy. Every flush pick
// goes through expandOne, and the pick reads state without changing
// it, so asking both implementations just before the real call checks
// exactly the frame that call is about to choose.
type checkedPolicy struct {
	inner flushPolicy
	t     testing.TB
	tally *pickTally
}

type pickTally struct{ picks, placed int }

func (p checkedPolicy) expandOne(d *Device) bool {
	want, got := scanSelect(d), d.selectFlushFrame()
	if got != want {
		p.t.Fatalf("pick %d: the index chose %s, the FIFO walk chooses %s", p.tally.picks, frameName(got), frameName(want))
	}
	oldest := scanOldest(d)
	if o := d.buf.Oldest(); o != oldest {
		p.t.Fatalf("pick %d: Oldest is %s, the FIFO walk finds %s", p.tally.picks, frameName(o), frameName(oldest))
	}
	p.tally.picks++
	if got != oldest {
		p.tally.placed++
	}
	return p.inner.expandOne(d)
}

func frameName(f *sram.Frame) string {
	if f == nil {
		return "no frame"
	}
	return fmt.Sprintf("page %d (home %d)", f.Logical, f.Home)
}

// pickConfig is a device small enough to churn quickly yet with eight
// banks and eight partitions, so ParallelFlush 8 has homes to spread
// over and the buffer holds a mix of them. Half the array stays free:
// an open transaction keeps a second Flash copy of every page it
// touches, and the schedules are arbitrary.
func pickConfig(kind cleaner.Kind, policy FlushPolicyKind, parallel int) Config {
	return Config{
		Geometry:    flash.Geometry{PageSize: 64, PagesPerSegment: 16, Segments: 32, Banks: 8},
		Cleaning:    cleaner.Config{Kind: kind, PartitionSegments: 4, WearThreshold: 8},
		BufferPages: 48,

		UtilizationTarget: 0.5,
		ParallelFlush:     parallel,
		FlushPolicy:       policy,
	}
}

// mountInPlace is recovery.Recover's repair sequence (this package
// cannot import internal/recovery, which imports it).
func mountInPlace(t testing.TB, d *Device) {
	t.Helper()
	d.DisarmFault()
	if _, err := d.RecoverMapTier(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RecoverFlushes(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RecoverDiffFlushes(); err != nil {
		t.Fatal(err)
	}
	d.ClearStrayFlushing()
	_, work, err := d.eng.RecoverIntent()
	if err != nil {
		t.Fatal(err)
	}
	d.ReplaySteps(work)
	d.QuarantineTorn()
	d.SweepOrphans()
	_, work = d.eng.LevelWearAtMount()
	d.ReplaySteps(work)
	d.ClearCrashed()
	if d.InTransaction() {
		if err := d.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.buf.CheckIndex(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// runPickProgram drives one device through a byte-coded schedule of
// writes, idle gaps, transactions, armed faults, power failures and
// recoveries, with every flush pick checked against the FIFO walk.
// Each step is an opcode byte and an argument byte.
func runPickProgram(t testing.TB, cfg Config, depth int, program []byte) pickTally {
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetHostConcurrency(depth)
	var tally pickTally
	d.policy = checkedPolicy{inner: d.policy, t: t, tally: &tally}

	pages := d.LogicalPages()
	ps := uint64(cfg.Geometry.PageSize)
	write := func(page int, v uint32) {
		// A crash surfaces as the write's error and as d.Crashed below.
		_, _ = d.WriteWordErr(uint64(page%pages)*ps+uint64(v%8)*4, v)
	}
	txnSteps := 0
	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i], int(program[i+1])
		if d.InTransaction() {
			if txnSteps++; txnSteps > 32 { // bound the shadow space a schedule can pin
				op = 12
			}
		} else {
			txnSteps = 0
		}
		switch op % 16 {
		case 0, 1, 2: // one write anywhere
			write(arg*pages/256+i%7, uint32(i))
		case 3, 4: // rewrite a hot page: buffer hits, some landing mid-flush
			write(arg%6, uint32(i))
		case 5, 6, 7: // a burst over consecutive pages: fills the buffer, mixes homes
			for k := 0; k <= arg%24; k++ {
				write(arg*pages/256+k, uint32(i+k))
			}
		case 8, 9: // a short idle gap: some flushes complete, some stay in flight
			d.AdvanceTo(d.Now().Add(sim.Duration(arg) * sim.Microsecond))
		case 10: // a long one: the pipeline drains
			d.AdvanceTo(d.Now().Add(sim.Duration(arg+1) * sim.Millisecond))
		case 11:
			if !d.InTransaction() && !d.Crashed() {
				if err := d.BeginTransaction(); err != nil {
					t.Fatal(err)
				}
			}
		case 12:
			if d.InTransaction() && !d.Crashed() {
				if arg%2 == 0 {
					err = d.Commit()
				} else {
					err = d.Rollback() // may crash under an armed plan; handled below
				}
				if err != nil && !d.Crashed() {
					t.Fatal(err)
				}
			}
		case 13:
			switch arg % 3 {
			case 0:
				d.ArmFault(fault.Plan{Program: int64(arg/3%20) + 1, Seed: uint64(arg)})
			case 1:
				d.ArmFault(fault.Plan{Erase: int64(arg/3%3) + 1, Seed: uint64(arg)})
			default:
				d.ArmFault(fault.Plan{Merge: int64(arg/3%4) + 1, Seed: uint64(arg)})
			}
		case 14:
			d.CrashPowerCycle()
		case 15:
			d.PowerCycle()
		}
		if d.Crashed() {
			mountInPlace(t, d)
		}
		if i%64 == 0 {
			if err := d.buf.CheckIndex(); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
		}
	}
	if d.Crashed() {
		mountInPlace(t, d)
	}
	d.DisarmFault()
	if d.InTransaction() {
		if err := d.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	d.AdvanceTo(d.Now().Add(sim.Second))
	if err := d.buf.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return tally
}

// TestFlushPickMatchesScan is the differential test of the
// flush-candidate index: across cleaning policy × write-back policy ×
// host depth × flush parallelism, seeded schedules with transactions
// committed and aborted mid-flush, armed faults and recoveries must
// see the index and the FIFO walk agree at every single pick.
func TestFlushPickMatchesScan(t *testing.T) {
	for _, kind := range []cleaner.Kind{cleaner.Hybrid, cleaner.Greedy} {
		for _, policy := range []FlushPolicyKind{FullPageFlush, DiffFlush} {
			for _, depth := range []int{1, 8} {
				for _, parallel := range []int{2, 8} {
					name := fmt.Sprintf("%v/policy%d/depth%d/par%d", kind, policy, depth, parallel)
					t.Run(name, func(t *testing.T) {
						var tally pickTally
						for seed := uint64(1); seed <= 3; seed++ {
							r := sim.NewRNG(seed*1000 + uint64(depth*10+parallel))
							program := make([]byte, 6000)
							for i := range program {
								program[i] = byte(r.Intn(256))
							}
							got := runPickProgram(t, pickConfig(kind, policy, parallel), depth, program)
							tally.picks += got.picks
							tally.placed += got.placed
						}
						if tally.picks < 500 {
							t.Errorf("only %d picks checked; the schedule no longer exercises the pick", tally.picks)
						}
						// Greedy has one home, so a placed pick is the FIFO pick.
						if kind == cleaner.Hybrid && tally.placed == 0 {
							t.Errorf("none of %d picks was steered off the FIFO tail; the bank-aware path went unexercised", tally.picks)
						}
					})
				}
			}
		}
	}
}

// FuzzFlushPick points the fuzzer at the same driver: the first byte
// selects the configuration, the rest is the schedule.
func FuzzFlushPick(f *testing.F) {
	f.Add([]byte{0, 5, 200, 5, 40, 8, 3, 13, 6, 5, 90, 8, 1, 14, 0, 5, 7, 10, 2})
	f.Add([]byte{7, 11, 0, 5, 255, 3, 1, 8, 2, 12, 1, 5, 10, 11, 0, 6, 77, 12, 0, 10, 9})
	f.Add([]byte{10, 6, 130, 13, 4, 5, 31, 8, 9, 15, 0, 7, 201, 13, 2, 6, 99, 10, 0})
	f.Add([]byte{13, 5, 23, 5, 23, 3, 2, 3, 2, 8, 30, 13, 1, 7, 250, 10, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		if len(data) > 1024 {
			data = data[:1024]
		}
		sel := data[0]
		kind := []cleaner.Kind{cleaner.Hybrid, cleaner.Greedy}[sel&1]
		policy := []FlushPolicyKind{FullPageFlush, DiffFlush}[sel>>1&1]
		depth := []int{1, 8}[sel>>2&1]
		parallel := []int{2, 8}[sel>>3&1]
		runPickProgram(t, pickConfig(kind, policy, parallel), depth, data[1:])
	})
}

// TestDiffTransactionReflush pins two schedules the differential driver
// minimised out of the differential-policy × transaction cells, both a
// page flushed inside a transaction and then written again before the
// transaction ends. In the first the page's diff entry is pinned to
// the shadow base when the second copy-on-write arrives (it used to
// trap in DiffDirectory.Keep); in the second the transaction created
// the page and its rollback must release the base kept at the second
// copy-on-write (it used to leak, with the entry).
func TestDiffTransactionReflush(t *testing.T) {
	for name, program := range map[string][]byte{
		"second copy-on-write over a shadow-pinned chain": {
			3, 204, 0, 227, 5, 16, 0, 113, 5, 8, 0, 160, 11, 78, 0, 92, 6, 234, 3, 126, 6, 71, 10, 227, 3, 84},
		"rollback of a created page with a kept base": {
			6, 196, 3, 77, 10, 91, 7, 169, 11, 118, 2, 205, 11, 63, 7, 121, 4, 255, 6, 180, 2, 155, 2, 127,
			7, 129, 9, 144, 15, 249, 15, 171, 3, 83, 1, 106, 5, 75, 11, 144, 2, 47, 13, 206, 1, 159},
	} {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []cleaner.Kind{cleaner.Hybrid, cleaner.Greedy} {
				for _, parallel := range []int{1, 8} {
					runPickProgram(t, pickConfig(kind, DiffFlush, parallel), parallel, program)
				}
			}
		})
	}
}
