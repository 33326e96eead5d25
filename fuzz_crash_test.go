package envy

import (
	"errors"
	"testing"
	"time"

	"envy/internal/invariant"
)

// crashConfig is the small hybrid device the crash fuzzers start from.
func crashConfig() Config {
	return Config{
		PageSize:          64,
		PagesPerSegment:   16,
		Segments:          8,
		Banks:             2,
		Policy:            HybridPolicy,
		PartitionSegments: 2,
		WearThreshold:     4,
		BufferPages:       24,
	}
}

// crashSeeds: writes then an external crash and recovery; a
// program-count plan armed mid-traffic; an erase plan with idle time
// for cleaning to run into; a transaction cut down by a crash; a
// retarget plan; a time plan firing during a long idle.
var crashSeeds = [][]byte{
	{0, 0, 0, 0, 1, 0, 5, 0, 0, 7, 0, 0, 0, 2, 0},
	{4, 0, 9, 0, 0, 0, 0, 1, 0, 0, 2, 0, 3, 50, 0},
	{4, 1, 2, 0, 0, 0, 3, 255, 0, 3, 255, 0, 0, 1, 0},
	{6, 0, 0, 0, 0, 0, 0, 1, 0, 5, 0, 0, 0, 2, 0},
	{4, 2, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0},
	{4, 3, 20, 3, 255, 0, 3, 255, 0, 0, 0, 0},
}

// FuzzCrashRecovery runs the crash driver on the default device: every
// crash class against copy-on-write, flushing, cleaning, wear swaps and
// transactions.
func FuzzCrashRecovery(f *testing.F) {
	fuzzCrash(f, crashConfig(), 5, crashSeeds...)
}

// FuzzDiffRecovery runs it with the differential flush policy on, so
// crashes also land on torn shared-unit programs, interrupted chain
// consolidations and the copy-on-write keep window; the invariant
// suite then includes the diff-claim bijection.
func FuzzDiffRecovery(f *testing.F) {
	cfg := crashConfig()
	cfg.FlushPolicy = DiffFlush
	// The crash classes of crashSeeds, with dense same-page rewrites
	// (building diff chains past the promotion bound) before each plan
	// fires, and a long rewrite/crash program that walks the crash point
	// into unit programs mid-chain and cleaning-time consolidation.
	fuzzCrash(f, cfg, 5,
		[]byte{0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5, 0, 0, 7, 0, 0, 0, 2, 0},
		[]byte{4, 0, 9, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 0, 3, 50, 0},
		crashSeeds[2], crashSeeds[3], crashSeeds[4], crashSeeds[5],
		[]byte{4, 0, 40, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 3, 0, 0, 4, 5, 0, 0, 0, 0, 5, 0, 0, 6})
}

// FuzzMapTierRecovery runs it with the two-tier page table on, so
// crashes also land on mapping-page writebacks and translation-segment
// cleans and erases; the invariant suite then includes tier
// consistency.
func FuzzMapTierRecovery(f *testing.F) {
	cfg := crashConfig()
	cfg.MapTier = &MapTierConfig{CacheFrames: 8, SegmentPages: 8}
	// crashSeeds churn mapping pages through the 8-frame cache before
	// the plan fires; the long alternating write/crash program walks the
	// crash point deep into tier writeback and translation cleaning.
	seeds := append(crashSeeds[:len(crashSeeds):len(crashSeeds)],
		[]byte{4, 0, 40, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 5, 0, 0, 0, 0, 5, 0, 0, 6})
	fuzzCrash(f, cfg, 5, seeds...)
}

// FuzzParallelWindow runs it on four banks with ParallelFlush at the
// bank count, and adds the merge-boundary plan class unique to
// multi-lane windows: the power fails while several background
// operations are in flight with their effects partially merged.
func FuzzParallelWindow(f *testing.F) {
	cfg := crashConfig()
	cfg.Segments, cfg.Banks, cfg.BufferPages = 16, 4, 32
	cfg.Policy = GreedyPolicy
	cfg.ParallelFlush = 4
	// Merge plans armed mid-traffic with idle for background work to
	// overlap; a program plan mid-window; an external yank while lanes
	// are busy; a transaction cut down inside a parallel window.
	fuzzCrash(f, cfg, 6,
		[]byte{0, 0, 0, 0, 1, 0, 4, 5, 2, 3, 200, 0, 0, 7, 0},
		[]byte{4, 5, 0, 0, 0, 0, 0, 1, 0, 3, 255, 0, 0, 2, 0},
		[]byte{4, 0, 6, 0, 0, 0, 3, 255, 0, 5, 0, 0, 0, 1, 0},
		[]byte{6, 0, 0, 0, 0, 0, 4, 5, 1, 3, 100, 0, 5, 0, 0})
}

// fuzzCrash interprets the fuzzer's byte stream as a host program that
// also wields the power switch: it arms crash plans, yanks power
// mid-operation, recovers, and keeps going on the same device built
// from cfg. A word-granularity model tracks every acknowledged write
// (with uncommitted transaction writes held aside), and after every
// recovery the entire logical space must read back exactly as the
// model says: acknowledged writes durable, torn pages invisible,
// uncommitted transactions rolled back. The arm step draws from the
// first planKinds plan classes: program, erase, retarget, time,
// probability and (6) merge boundary.
func fuzzCrash(f *testing.F, cfg Config, planKinds byte, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			program = program[:512]
		}
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var chk invariant.Checker
		model := make(map[uint64]uint32) // acknowledged (committed) words
		pend := make(map[uint64]uint32)  // words written in the open transaction
		inTxn := false

		verifyAll := func(step int) {
			for addr := uint64(0); addr < uint64(dev.Size()); addr += 4 {
				v, _, err := dev.ReadWordErr(addr)
				if err != nil {
					t.Fatalf("step %d: post-recovery read at %d: %v", step, addr, err)
				}
				if want := model[addr]; v != want {
					t.Fatalf("step %d: post-recovery read %#x at %d, want %#x", step, v, addr, want)
				}
			}
		}
		// recoverNow mounts the crashed device and verifies the whole
		// durability contract before the program continues.
		recoverNow := func(step int) {
			rep, err := dev.Recover()
			if err != nil {
				t.Fatalf("step %d: recovery failed: %v (report: %+v)", step, err, rep)
			}
			inTxn = false // recovery rolls back any open transaction
			pend = make(map[uint64]uint32)
			verifyAll(step)
			if err := chk.Check(dev.Core()); err != nil {
				t.Fatalf("step %d: after recovery: %v", step, err)
			}
		}
		// fail filters an operation error: a power failure latches (the
		// top of the next iteration recovers), anything else on an
		// in-range access is a bug.
		fail := func(step int, err error, addr uint64) bool {
			if err == nil {
				return false
			}
			if errors.Is(err, ErrPowerFailure) {
				return true
			}
			if addr < uint64(dev.Size()) {
				t.Fatalf("step %d: in-range access rejected: %v", step, err)
			}
			return true
		}

		for step := 0; step+3 <= len(program); step += 3 {
			if dev.Crashed() {
				recoverNow(step)
			}
			op, lo, hi := program[step], program[step+1], program[step+2]
			addr := (uint64(hi)<<8 | uint64(lo)) * 4 % (uint64(dev.Size()) + 64)
			switch op % 8 {
			case 0, 1: // write one word
				v := uint32(step)<<8 | uint32(lo)
				if fail(step, func() error { _, err := dev.WriteWordErr(addr, v); return err }(), addr) {
					continue
				}
				if inTxn {
					pend[addr] = v
				} else {
					model[addr] = v
				}
			case 2: // read one word and verify
				v, _, err := dev.ReadWordErr(addr)
				if fail(step, err, addr) {
					continue
				}
				want := model[addr]
				if w, ok := pend[addr]; inTxn && ok {
					want = w
				}
				if v != want {
					t.Fatalf("step %d: read %#x at %d, want %#x", step, v, addr, want)
				}
			case 3: // idle (background work, timed plans)
				dev.Idle(time.Duration(lo) * time.Microsecond)
			case 4: // arm a crash plan
				var plan FaultPlan
				switch lo % planKinds {
				case 0:
					plan.Program = 1 + int64(hi)
				case 1:
					plan.Erase = 1 + int64(hi%8)
				case 2:
					plan.Retarget = 1 + int64(hi)
				case 3:
					plan.At = time.Duration(1+int(hi)) * 100 * time.Microsecond
				case 4:
					plan.Probability = float64(1+int(hi)) / 2048
					plan.Seed = uint64(step)
				case 5:
					plan.Merge = 1 + int64(hi%32)
				}
				dev.ArmFault(plan)
			case 5: // yank the power mid-whatever is queued
				dev.CrashPowerCycle()
			case 6: // transaction machinery
				if !inTxn {
					err = dev.Begin()
				} else if lo%2 == 0 {
					if err = dev.Commit(); err == nil {
						for a, v := range pend {
							model[a] = v
						}
					}
				} else {
					err = dev.Rollback()
				}
				if fail(step, err, 0) {
					continue
				}
				if inTxn {
					pend = make(map[uint64]uint32)
				}
				inTxn = !inTxn
			case 7: // clean power cycle (must be transparent) or recovery point
				if !dev.Crashed() {
					dev.DisarmFault() // a clean shutdown needs quiescing, not crashing
					dev.PowerCycle()
				}
			}
			if !dev.Crashed() {
				if err := chk.Check(dev.Core()); err != nil {
					t.Fatalf("after step %d (op %d): %v", step, op%8, err)
				}
			}
		}
		if dev.Crashed() {
			recoverNow(len(program))
		}
		dev.DisarmFault()
		if inTxn {
			if err := dev.Commit(); err != nil {
				t.Fatal(err)
			}
			for a, v := range pend {
				model[a] = v
			}
		}
		dev.Idle(10 * time.Second) // drain all background work
		verifyAll(len(program))
		if err := chk.Check(dev.Core()); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	})
}
