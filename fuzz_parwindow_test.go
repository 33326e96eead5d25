package envy

import (
	"errors"
	"testing"
	"time"

	"envy/internal/invariant"
)

// FuzzParallelWindow is the crash-recovery fuzzer pointed at the
// parallel background path: four banks with ParallelFlush at the bank
// count, so the byte stream's crash plans — including the
// merge-boundary class unique to multi-lane windows — fire while
// several background operations are in flight with their effects
// partially merged. The durability contract
// is the same as FuzzCrashRecovery's: after every recovery the whole
// logical space reads back exactly as the model says.
func FuzzParallelWindow(f *testing.F) {
	// Seeds: merge plans armed mid-traffic with idle for background work
	// to overlap; a program plan mid-window; an external yank while
	// lanes are busy; a transaction cut down inside a parallel window.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 5, 2, 3, 200, 0, 0, 7, 0})
	f.Add([]byte{4, 5, 0, 0, 0, 0, 0, 1, 0, 3, 255, 0, 0, 2, 0})
	f.Add([]byte{4, 0, 6, 0, 0, 0, 3, 255, 0, 5, 0, 0, 0, 1, 0})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 4, 5, 1, 3, 100, 0, 5, 0, 0})

	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			program = program[:512]
		}
		dev, err := New(Config{
			PageSize:          64,
			PagesPerSegment:   16,
			Segments:          16,
			Banks:             4,
			Policy:            GreedyPolicy,
			PartitionSegments: 2,
			WearThreshold:     4,
			BufferPages:       32,
			ParallelFlush:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		var chk invariant.Checker
		model := make(map[uint64]uint32)
		pend := make(map[uint64]uint32)
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
		recoverNow := func(step int) {
			rep, err := dev.Recover()
			if err != nil {
				t.Fatalf("step %d: recovery failed: %v (report: %+v)", step, err, rep)
			}
			inTxn = false
			pend = make(map[uint64]uint32)
			verifyAll(step)
			if err := chk.Check(dev.Core()); err != nil {
				t.Fatalf("step %d: after recovery: %v", step, err)
			}
		}
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
			case 3: // idle (background work overlaps across lanes here)
				dev.Idle(time.Duration(lo) * time.Microsecond)
			case 4: // arm a crash plan — merge boundaries join the classes
				var plan FaultPlan
				switch lo % 6 {
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
			case 5: // yank the power mid-window
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
			case 7: // clean power cycle (must be transparent)
				if !dev.Crashed() {
					dev.DisarmFault()
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
		dev.Idle(10 * time.Second)
		verifyAll(len(program))
		if err := chk.Check(dev.Core()); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	})
}
