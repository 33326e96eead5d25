package envy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"envy/internal/invariant"
	"envy/internal/sim"
	"envy/internal/stats"
)

// The page-span access kernel accounts a run of identical word
// accesses in closed form. These tests pin the claim that doing so is
// unobservable: twin devices are fed the same schedule of host
// operations, one through Read/Write spans and one a word at a time
// through ReadWordErr/WriteWordErr (the kernel's n = 1 case, which
// walks the controller path once per word as the simulator used to),
// and must agree on every simulated figure after every step.

// spanCase is one point of the configuration matrix.
type spanCase struct {
	policy  Policy
	flush   FlushPolicy
	mapTier bool
	depth   int
	par     int
	mmu     int
	fault   bool
}

func (c spanCase) String() string {
	return fmt.Sprintf("%v/%v/maptier=%v/depth=%d/par=%d/mmu=%d/fault=%v",
		c.policy, c.flush, c.mapTier, c.depth, c.par, c.mmu, c.fault)
}

// spanMatrix is {greedy, hybrid} × {full-page, diff} × {map tier off,
// on} × depth {1, 8} × ParallelFlush {1, 8} × MMU {default, disabled}
// × {no fault, armed fault plans}.
func spanMatrix() []spanCase {
	var cases []spanCase
	for _, policy := range []Policy{GreedyPolicy, HybridPolicy} {
		for _, flush := range []FlushPolicy{FullPageFlush, DiffFlush} {
			for _, mapTier := range []bool{false, true} {
				for _, depth := range []int{1, 8} {
					for _, par := range []int{1, 8} {
						for _, mmu := range []int{0, -1} {
							for _, fault := range []bool{false, true} {
								cases = append(cases, spanCase{policy, flush, mapTier, depth, par, mmu, fault})
							}
						}
					}
				}
			}
		}
	}
	return cases
}

func (c spanCase) config() Config {
	cfg := Config{
		PageSize:          64,
		PagesPerSegment:   16,
		Segments:          16,
		Banks:             8,
		Policy:            c.policy,
		PartitionSegments: 4,
		WearThreshold:     6,
		BufferPages:       24,
		MMUEntries:        c.mmu,
		ParallelFlush:     c.par,
		HostQueueDepth:    c.depth,
		FlushPolicy:       c.flush,
	}
	if c.mapTier {
		cfg.MapTier = &MapTierConfig{CacheFrames: 8, SegmentPages: 8}
	}
	return cfg
}

// spanSnapshot is every simulated figure the twins must share.
type spanSnapshot struct {
	now       sim.Time
	counters  stats.Counters
	breakdown stats.Breakdown
	ops       stats.OpStats
	readLat   stats.Latency
	writeLat  stats.Latency
	mmuRate   float64
	buffered  int
	crashed   bool
}

func snapshotOf(dev *Device) spanSnapshot {
	d := dev.Core()
	return spanSnapshot{
		now: d.Now(), counters: d.Counters(), breakdown: d.Breakdown(), ops: d.OpStats(),
		readLat: *d.ReadLatency(), writeLat: *d.WriteLatency(),
		mmuRate: d.MMUHitRate(), buffered: d.BufferLen(), crashed: d.Crashed(),
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runSpanDifferential interprets program (four bytes per step) against
// the twins built from c and fails on the first disagreement. It
// returns how many crash recoveries the schedule went through.
func runSpanDifferential(t *testing.T, c spanCase, program []byte) (recoveries int) {
	t.Helper()
	span, err := New(c.config())
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	word, err := New(c.config())
	if err != nil {
		t.Fatal(err)
	}
	defer span.Close()
	defer word.Close()
	size := uint64(span.Size())
	arm := func(seed byte) {
		// One of the four deterministic triggers, close enough to fire
		// within a few dozen steps.
		n := int64(seed%23) + 1
		plan := []FaultPlan{
			{Program: n}, {Erase: n%4 + 1}, {Retarget: n},
			{At: span.Now() + time.Duration(n)*20*time.Microsecond},
		}[seed%4]
		plan.Seed = uint64(seed)
		span.ArmFault(plan)
		word.ArmFault(plan)
	}
	if c.fault {
		arm(7)
	}
	inTxn := false
	spanBuf, wordBuf := make([]byte, 256), make([]byte, 256)

	for step := 0; step+4 <= len(program); step += 4 {
		op, lo, hi, arg := program[step], program[step+1], program[step+2], program[step+3]
		addr := (uint64(hi)<<8 | uint64(lo)) * 4 % (size + 64)
		if arg&0x80 != 0 {
			addr += 2 // misaligned: a word may straddle a page boundary
		}
		n := 4 * (1 + int(arg&0x3f)) // 1–64 words: up to four pages
		what := ""
		switch op % 8 {
		case 0, 1, 2:
			what = fmt.Sprintf("write %d+%d", addr, n)
			data := spanBuf[:n]
			for i := range data {
				data[i] = byte(step + i*7)
			}
			spanLat, spanErr := span.WriteErr(data, addr)
			if span.Core().CheckRange(addr, n) != nil {
				// Rejected up front, no trace; the word twin would run
				// into the device end part-way, which is not the same
				// operation.
				if spanErr == nil || spanLat != 0 {
					t.Fatalf("%v step %d: out-of-range %s charged %v, err %v", c, step, what, spanLat, spanErr)
				}
				break
			}
			var wordLat time.Duration
			var wordErr error
			for i := 0; i < n && wordErr == nil; i += 4 {
				var lat time.Duration
				lat, wordErr = word.WriteWordErr(addr+uint64(i), binary.LittleEndian.Uint32(data[i:]))
				wordLat += lat
			}
			if spanLat != wordLat || errText(spanErr) != errText(wordErr) {
				t.Fatalf("%v step %d: %s: span %v (%v), words %v (%v)", c, step, what, spanLat, spanErr, wordLat, wordErr)
			}
		case 3, 4:
			what = fmt.Sprintf("read %d+%d", addr, n)
			spanLat, spanErr := span.ReadErr(spanBuf[:n], addr)
			if span.Core().CheckRange(addr, n) != nil {
				if spanErr == nil || spanLat != 0 {
					t.Fatalf("%v step %d: out-of-range %s charged %v, err %v", c, step, what, spanLat, spanErr)
				}
				break
			}
			var wordLat time.Duration
			var wordErr error
			done := 0
			for ; done < n && wordErr == nil; done += 4 {
				var v uint32
				var lat time.Duration
				v, lat, wordErr = word.ReadWordErr(addr + uint64(done))
				binary.LittleEndian.PutUint32(wordBuf[done:], v)
				wordLat += lat
			}
			if spanLat != wordLat || errText(spanErr) != errText(wordErr) {
				t.Fatalf("%v step %d: %s: span %v (%v), words %v (%v)", c, step, what, spanLat, spanErr, wordLat, wordErr)
			}
			if spanErr == nil && !bytes.Equal(spanBuf[:n], wordBuf[:n]) {
				t.Fatalf("%v step %d: %s returned different bytes", c, step, what)
			}
		case 5:
			what = "idle"
			d := time.Duration(lo) * time.Duration(1+arg%8) * 500 * time.Nanosecond
			span.Idle(d)
			word.Idle(d)
		case 6:
			if span.Crashed() || (c.flush == DiffFlush && c.mapTier) {
				// DiffFlush over the two-tier table still does not survive
				// every crash. The copy-on-write window is closed
				// (TestMapTierDiffCOWCrashSweep), but a second failure is
				// open — Recover rejects a flush reservation whose target
				// page is free (ROADMAP.md open item 1 has the recipe) —
				// and with a transaction open a failed mount traps inside
				// the rollback instead of returning the error the twins
				// are compared on.
				break
			}
			var spanErr, wordErr error
			switch {
			case !inTxn:
				what = "begin"
				spanErr, wordErr = span.Begin(), word.Begin()
			case lo%2 == 0:
				what = "commit"
				spanErr, wordErr = span.Commit(), word.Commit()
			default:
				what = "rollback"
				spanErr, wordErr = span.Rollback(), word.Rollback()
			}
			if errText(spanErr) != errText(wordErr) {
				t.Fatalf("%v step %d: %s: span %v, words %v", c, step, what, spanErr, wordErr)
			}
			if spanErr == nil {
				inTxn = !inTxn
			}
		case 7:
			switch {
			case span.Crashed():
				what = "recover"
				spanRep, spanErr := span.Recover()
				wordRep, wordErr := word.Recover()
				if spanRep != wordRep || errText(spanErr) != errText(wordErr) {
					t.Fatalf("%v step %d: recovery: span %+v (%v), words %+v (%v)", c, step, spanRep, spanErr, wordRep, wordErr)
				}
				if spanErr != nil {
					// Both twins failed to mount the same way: the kernel
					// is not the cause (the schedules that get here do so
					// at the parent commit too — feature-combination
					// recovery bugs, listed in ROADMAP.md), and there is
					// no device left to drive.
					t.Logf("%v step %d: both twins failed recovery alike, schedule cut short: %v", c, step, spanErr)
					return recoveries
				}
				inTxn = false
				recoveries++
			case c.fault && lo%4 == 0:
				what = "arm"
				arm(hi)
			default:
				what = "power cycle"
				span.PowerCycle()
				word.PowerCycle()
			}
		}
		if a, b := snapshotOf(span), snapshotOf(word); a != b {
			t.Fatalf("%v step %d (%s): twins diverged\nspan  %+v\nwords %+v", c, step, what, a, b)
		}
		if step%64 == 0 && !span.Crashed() {
			// Includes the recount of the per-bank in-flight counters.
			if err := invariant.CheckDevice(span.Core()); err != nil {
				t.Fatalf("%v step %d (%s): %v", c, step, what, err)
			}
		}
	}

	// Settle, then compare the whole logical space and the public
	// statistics.
	for _, dev := range []*Device{span, word} {
		dev.DisarmFault()
		if dev.Crashed() {
			if _, err := dev.Recover(); err != nil {
				t.Logf("%v: final recovery failed, contents not compared: %v", c, err)
				return recoveries
			}
		} else if inTxn {
			if err := dev.Commit(); err != nil {
				t.Fatalf("%v: final commit: %v", c, err)
			}
		}
		dev.Idle(time.Second)
		if err := invariant.CheckDevice(dev.Core()); err != nil {
			t.Fatalf("%v: after drain: %v", c, err)
		}
	}
	spanAll, wordAll := make([]byte, size), make([]byte, size)
	if _, err := span.ReadErr(spanAll, 0); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < size; a += 4 {
		v, _, err := word.ReadWordErr(a)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(wordAll[a:], v)
	}
	if !bytes.Equal(spanAll, wordAll) {
		t.Fatalf("%v: contents differ after the run", c)
	}
	if a, b := span.Stats(), word.Stats(); a != b {
		t.Fatalf("%v: public statistics differ\nspan  %+v\nwords %+v", c, a, b)
	}
	return recoveries
}

// TestSpanMatchesWordAtATime runs a seeded random schedule over the
// whole configuration matrix.
func TestSpanMatchesWordAtATime(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 150
	}
	recoveries := 0
	for i, c := range spanMatrix() {
		rng := sim.NewRNG(uint64(i)*0x9e3779b97f4a7c15 + 1)
		program := make([]byte, 4*steps)
		for j := range program {
			program[j] = byte(rng.Uint64())
		}
		// Bias toward dense rewrites of a few pages: spans that land on
		// buffered pages are where the closed form applies.
		for j := 0; j+4 <= len(program); j += 4 {
			if rng.Intn(3) != 0 {
				program[j+2] = 0
			}
		}
		recoveries += runSpanDifferential(t, c, program)
	}
	if recoveries == 0 {
		t.Error("no armed fault ever fired: the crash half of the matrix exercised nothing")
	}
	t.Logf("%d crash recoveries across the matrix", recoveries)
}

// FuzzSpanVsWord lets the fuzzer pick the matrix point (first byte)
// and the schedule.
func FuzzSpanVsWord(f *testing.F) {
	// Seeds: page-sized rewrites of one page; a read-back across pages;
	// a transaction with rollback; a misaligned span over a boundary;
	// idle drains between bursts; an armed fault then recovery.
	f.Add([]byte{0, 0, 0, 0, 15, 0, 0, 0, 15, 3, 0, 0, 15, 0, 4, 0, 15})
	f.Add([]byte{5, 0, 0, 0, 63, 3, 0, 0, 63, 5, 200, 0, 3, 3, 8, 0, 40})
	f.Add([]byte{34, 6, 0, 0, 0, 0, 0, 0, 15, 0, 16, 0, 15, 6, 1, 0, 0, 3, 0, 0, 31})
	f.Add([]byte{64, 0, 14, 0, 0x83, 3, 14, 0, 0x83, 0, 15, 0, 0x81})
	f.Add([]byte{97, 0, 0, 0, 15, 5, 255, 0, 7, 0, 16, 0, 15, 5, 255, 0, 7, 0, 32, 0, 15})
	f.Add([]byte{127, 0, 0, 0, 15, 0, 16, 0, 15, 0, 32, 0, 15, 0, 48, 0, 15, 7, 1, 0, 0, 0, 64, 0, 15, 7, 1, 0, 0})
	matrix := spanMatrix()
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) < 1 {
			return
		}
		if len(input) > 1+4*256 {
			input = input[:1+4*256]
		}
		runSpanDifferential(t, matrix[int(input[0])%len(matrix)], input[1:])
	})
}

// TestBufferedAccessDoesNotAllocate pins the host access path at zero
// heap allocations: a page-sized Write to a buffered page, a Read of
// it, and the single-word forms (whose 4-byte staging arrays must stay
// on the stack through the kernel).
func TestBufferedAccessDoesNotAllocate(t *testing.T) {
	dev, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 256)
	dev.Write(page, 512) // copy-on-write: the page is buffered from here on
	for name, fn := range map[string]func(){
		"Write":     func() { dev.Write(page, 512) },
		"Read":      func() { dev.Read(page, 512) },
		"WriteWord": func() { dev.WriteWord(516, 7) },
		"ReadWord":  func() { dev.ReadWord(516) },
	} {
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s of a buffered page allocates %.2f times per call, want 0", name, avg)
		}
	}
}
