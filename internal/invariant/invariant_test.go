package invariant_test

import (
	"strings"
	"testing"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/invariant"
	"envy/internal/sim"
	"envy/internal/workload"
)

// testConfig builds a small device at 80% utilization with wear
// leveling enabled, under the given cleaning policy.
func testConfig(kind cleaner.Kind) core.Config {
	return core.Config{
		Geometry:          flash.Geometry{PageSize: 64, PagesPerSegment: 32, Segments: 16, Banks: 4},
		Cleaning:          cleaner.Config{Kind: kind, PartitionSegments: 4, WearThreshold: 8},
		UtilizationTarget: 0.8,
		BufferPages:       48,
	}
}

// TestRandomizedOperations drives 10k randomized host operations —
// reads, writes, idle stretches, power cycles, and transactions —
// through a device under each cleaning policy, checking every device
// invariant at regular intervals (the acceptance harness for the
// whole-device checker).
func TestRandomizedOperations(t *testing.T) {
	for _, kind := range []cleaner.Kind{cleaner.Hybrid, cleaner.Greedy} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			d, err := core.New(testConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			var chk invariant.Checker
			rng := sim.NewRNG(42)
			dist := sim.Bimodal{HotData: 0.1, HotAccess: 0.9}
			words := int(d.Size() / 4)
			inTxn := false

			const ops = 10_000
			for i := 0; i < ops; i++ {
				addr := uint64(dist.Draw(rng, words)) * 4
				switch r := rng.Intn(100); {
				case r < 55:
					d.WriteWord(addr, uint32(i))
				case r < 80:
					d.ReadWord(addr)
				case r < 90:
					d.AdvanceTo(d.Now().Add(sim.Duration(rng.Intn(100)) * sim.Microsecond))
				case r < 93:
					d.PowerCycle()
				default:
					if inTxn {
						if rng.Intn(2) == 0 {
							err = d.Commit()
						} else {
							err = d.Rollback()
						}
					} else {
						err = d.BeginTransaction()
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					inTxn = !inTxn
				}
				if i%100 == 99 {
					if err := chk.Check(d); err != nil {
						t.Fatalf("after %d ops: %v", i+1, err)
					}
				}
			}
			if inTxn {
				if err := d.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// Drain all background work and check the quiesced device.
			d.AdvanceTo(d.Now().Add(10 * sim.Second))
			if err := chk.Check(d); err != nil {
				t.Fatalf("after drain: %v", err)
			}
			if d.Counters().SegmentCleans == 0 {
				t.Fatal("workload never triggered cleaning; the test is not exercising the invariants")
			}
		})
	}
}

// TestCheckHarness runs the bufferless policy harness under both
// policies and checks its invariants periodically.
func TestCheckHarness(t *testing.T) {
	for _, cfg := range []cleaner.Config{
		{Kind: cleaner.Hybrid, PartitionSegments: 4, WearThreshold: 8},
		{Kind: cleaner.Greedy, WearThreshold: 8},
	} {
		h, err := cleaner.NewHarness(flash.Geometry{PageSize: 64, PagesPerSegment: 32, Segments: 16, Banks: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Load()
		gen := workload.NewBimodal(sim.Bimodal{HotData: 0.1, HotAccess: 0.9}, h.LogicalPages(), 7)
		for i := 0; i < 40; i++ {
			for j := 0; j < 500; j++ {
				h.Write(gen.Next())
			}
			if err := invariant.CheckHarness(h); err != nil {
				t.Fatalf("%v after %d writes: %v", cfg.Kind, (i+1)*500, err)
			}
		}
	}
}

// quiescedDevice returns a device with settled state: some pages in
// Flash, some buffered, nothing mid-flush.
func quiescedDevice(t *testing.T) *core.Device {
	t.Helper()
	d, err := core.New(testConfig(cleaner.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	words := int(d.Size() / 4)
	for i := 0; i < 2000; i++ {
		d.WriteWord(uint64(rng.Intn(words))*4, uint32(i))
	}
	d.AdvanceTo(d.Now().Add(10 * sim.Second)) // drain in-flight flushes
	if err := invariant.CheckDevice(d); err != nil {
		t.Fatalf("device not consistent before corruption: %v", err)
	}
	return d
}

// findFlashMapped returns a logical page whose current copy is in
// Flash, with its physical page.
func findFlashMapped(t *testing.T, d *core.Device) (lpn, ppn uint32) {
	t.Helper()
	table := d.PageTable()
	for l := 0; l < table.Len(); l++ {
		if loc, ok := table.Lookup(uint32(l)); ok && !loc.InSRAM {
			return uint32(l), loc.PPN
		}
	}
	t.Fatal("no flash-mapped page found")
	return 0, 0
}

// TestCheckDeviceFires corrupts a consistent device in targeted ways
// and asserts CheckDevice reports each corruption. The mutations go
// through owner-package APIs from outside the owning layers, which is
// exactly what the flashstate analyzer forbids in non-test code; the
// suppressions mark them as deliberate.
func TestCheckDeviceFires(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(t *testing.T, d *core.Device)
		want    string // substring of the expected violation
	}{
		{
			name: "mapping targets invalidated page",
			corrupt: func(t *testing.T, d *core.Device) {
				_, ppn := findFlashMapped(t, d)
				d.Array().Invalidate(ppn) //envyvet:allow flashstate
			},
			want: "maps to",
		},
		{
			name: "double-claimed physical page",
			corrupt: func(t *testing.T, d *core.Device) {
				lpn, ppn := findFlashMapped(t, d)
				other := (lpn + 1) % uint32(d.PageTable().Len())
				d.PageTable().MapFlash(other, ppn) //envyvet:allow flashstate
			},
			want: "owned by",
		},
		{
			name: "sram mapping without frame",
			corrupt: func(t *testing.T, d *core.Device) {
				lpn, _ := findFlashMapped(t, d)
				d.PageTable().MapSRAM(lpn) //envyvet:allow flashstate
			},
			want: "not buffered",
		},
		{
			name: "flushing frame without reservation",
			corrupt: func(t *testing.T, d *core.Device) {
				f := d.Buffer().Oldest()
				if f == nil {
					t.Fatal("no buffered frame")
				}
				d.Buffer().BeginFlush(f) //envyvet:allow flashstate
			},
			want: "no flush reservation",
		},
		{
			// Home decides which candidate list a frame is linked into;
			// moving it behind the buffer's back leaves the frame linked
			// in a list that is no longer its own.
			name: "flush-candidate list holds another home's frame",
			corrupt: func(t *testing.T, d *core.Device) {
				f := d.Buffer().Oldest()
				if f == nil {
					t.Fatal("no buffered frame")
				}
				f.Home++
			},
			want: "flush-candidate index",
		},
		{
			name: "dirtied frame not flushing",
			corrupt: func(t *testing.T, d *core.Device) {
				f := d.Buffer().Oldest()
				if f == nil {
					t.Fatal("no buffered frame")
				}
				f.Dirtied = true
			},
			want: "Dirtied but not Flushing",
		},
		{
			name: "live page leak",
			corrupt: func(t *testing.T, d *core.Device) {
				lpn, _ := findFlashMapped(t, d)
				d.PageTable().Unmap(lpn) //envyvet:allow flashstate
			},
			want: "unreachable",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := quiescedDevice(t)
			tc.corrupt(t, d)
			err := invariant.CheckDevice(d)
			if err == nil {
				t.Fatal("CheckDevice accepted the corrupted device")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckDevice reported %q, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestWearAccountingFires exercises the erase-conservation check on
// inputs no API path can produce.
func TestWearAccountingFires(t *testing.T) {
	if err := invariant.WearAccounting([]int64{3, 2, 1}, 6); err != nil {
		t.Fatalf("consistent accounting rejected: %v", err)
	}
	if err := invariant.WearAccounting([]int64{3, 2, 1}, 7); err == nil {
		t.Fatal("desynced erase tally accepted")
	} else if !strings.Contains(err.Error(), "sum to 6") {
		t.Fatalf("wrong violation: %v", err)
	}
}

// TestWearSpreadBoundFires exercises the wear-leveling spread bound on
// synthetic counts and swap marks (spare is segment 3 throughout).
func TestWearSpreadBoundFires(t *testing.T) {
	// An actively-wearing segment (mark 0 < count 20) runs 20 beyond the
	// youngest with threshold 4: fires.
	if err := invariant.WearSpreadBound([]int64{20, 0, 1, 2}, []int64{0, 0, 0, 0}, 3, 4); err == nil {
		t.Fatal("excessive wear spread accepted")
	} else if !strings.Contains(err.Error(), "beyond the youngest") {
		t.Fatalf("wrong violation: %v", err)
	}
	// The same counts pass when the hot segment is retired (count ==
	// mark): wear-swapped segments rest at their historical counts.
	if err := invariant.WearSpreadBound([]int64{20, 0, 1, 2}, []int64{20, 0, 0, 0}, 3, 4); err != nil {
		t.Fatalf("retired segment's resting count rejected: %v", err)
	}
	// A spread within threshold + swap window passes.
	if err := invariant.WearSpreadBound([]int64{10, 4, 5, 6}, []int64{0, 0, 0, 0}, 3, 4); err != nil {
		t.Fatalf("in-window spread rejected: %v", err)
	}
	// A mark above its counter is always corrupt, even with leveling off.
	if err := invariant.WearSpreadBound([]int64{1, 2, 3, 4}, []int64{5, 0, 0, 0}, 3, 0); err == nil {
		t.Fatal("mark beyond counter accepted")
	} else if !strings.Contains(err.Error(), "mark") {
		t.Fatalf("wrong violation: %v", err)
	}
	// The spare segment is exempt: it may sit far above the rest while
	// mid-rotation.
	if err := invariant.WearSpreadBound([]int64{2, 3, 4, 50}, []int64{0, 0, 0, 0}, 3, 4); err != nil {
		t.Fatalf("spare segment's count rejected: %v", err)
	}
}

// TestCheckerMonotonicity verifies the cross-call clock check fires
// when time appears to move backwards (as when a checker is reused
// across devices).
func TestCheckerMonotonicity(t *testing.T) {
	d1, err := core.New(testConfig(cleaner.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	d1.AdvanceTo(sim.Time(0).Add(1 * sim.Second))
	var chk invariant.Checker
	if err := chk.Check(d1); err != nil {
		t.Fatal(err)
	}
	d2, err := core.New(testConfig(cleaner.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Check(d2); err == nil {
		t.Fatal("clock regression accepted")
	} else if !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("wrong violation: %v", err)
	}
}
