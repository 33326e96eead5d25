package envy

import (
	"bytes"
	"testing"
	"time"

	"envy/internal/invariant"
	"envy/internal/sim"
)

// mapTierConfig is a small device with the two-tier page table on:
// tiny mapping pages and cache so the tier's fetch/writeback/clean
// machinery all engage under modest traffic.
func mapTierConfig() Config {
	return Config{
		PageSize:          64,
		PagesPerSegment:   16,
		Segments:          16,
		Banks:             2,
		Policy:            HybridPolicy,
		PartitionSegments: 4,
		WearThreshold:     100,
		BufferPages:       32,
		MapTier:           &MapTierConfig{CacheFrames: 8, SegmentPages: 16},
	}
}

// TestMapTierReadWriteEquivalence runs the same program against a
// flat-table device and a two-tier device: the data plane must be
// byte-identical (the tier changes translation cost, never contents),
// and the tiered device must stay internally consistent throughout.
func TestMapTierReadWriteEquivalence(t *testing.T) {
	flatCfg := mapTierConfig()
	flatCfg.MapTier = nil
	flat, err := New(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := New(mapTierConfig())
	if err != nil {
		t.Fatal(err)
	}
	var chk invariant.Checker

	buf := make([]byte, 256)
	for round := 0; round < 60; round++ {
		for i := range buf {
			buf[i] = byte(round + i)
		}
		addr := uint64(round%40) * 256
		flat.Write(buf, addr)
		tiered.Write(buf, addr)
		if round%7 == 0 {
			flat.Idle(200 * time.Microsecond)
			tiered.Idle(200 * time.Microsecond)
		}
		if err := chk.Check(tiered.Core()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	got := make([]byte, 256)
	want := make([]byte, 256)
	for round := 0; round < 40; round++ {
		addr := uint64(round) * 256
		flat.Read(want, addr)
		tiered.Read(got, addr)
		if !bytes.Equal(got, want) {
			t.Fatalf("page at %d diverged between flat and tiered devices", addr)
		}
	}

	st := tiered.Stats()
	if !st.MapTierEnabled {
		t.Fatal("Stats.MapTierEnabled false on a tiered device")
	}
	if st.MapHits+st.MapMisses == 0 {
		t.Fatal("tiered device served no translations through the mapping cache")
	}
	if fst := flat.Stats(); fst.MapTierEnabled || fst.MapDirectoryBytes != 0 {
		t.Fatalf("flat device reports tier stats: %+v", fst)
	}
}

// TestMapTierSRAMBudget pins the point of the tier: its battery-backed
// footprint (directory + cache) undercuts the flat table it replaces.
func TestMapTierSRAMBudget(t *testing.T) {
	cfg := mapTierConfig()
	cfg.Segments = 64 // more logical pages to make the flat table big
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	tier := st.MapDirectoryBytes + st.MapCacheBytes
	if tier == 0 {
		t.Fatal("tiered device reports zero tier SRAM")
	}
	if tier >= st.FlatTableBytes {
		t.Fatalf("tier SRAM %d not below the flat table's %d", tier, st.FlatTableBytes)
	}
}

// TestMapTierBackgroundOps drives enough write traffic that mapping
// pages wash in and out of the cache, then checks the background
// machinery showed up in the op-lifecycle stats.
func TestMapTierBackgroundOps(t *testing.T) {
	dev, err := New(mapTierConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Touch the whole logical space repeatedly: far more mapping pages
	// than the 8 cache frames, so fetches, evictions and writebacks run.
	n := int(dev.Size() / 64)
	for round := 0; round < 6; round++ {
		for p := 0; p < n; p++ {
			for i := range buf {
				buf[i] = byte(p + round)
			}
			dev.Write(buf, uint64(p)*64)
		}
		dev.Idle(2 * time.Millisecond)
	}
	st := dev.Stats()
	if st.MapFetches == 0 {
		t.Fatalf("no mapping-page fetches after sweeping %d pages with 8 frames: %+v", n, st)
	}
	if st.MapWritebacks+st.MapSyncWritebacks == 0 {
		t.Fatal("no mapping-page writebacks after sustained write traffic")
	}
	if st.MapFlushOps.Started != st.MapWritebacks {
		t.Fatalf("MapFlushOps.Started = %d, want %d (one op per background writeback)",
			st.MapFlushOps.Started, st.MapWritebacks)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMapTierCrashRecovery yanks power mid-traffic on a tiered device
// and checks the mount path: acknowledged data reads back, the tier's
// own repairs are reported, and the full invariant suite holds.
func TestMapTierCrashRecovery(t *testing.T) {
	dev, err := New(mapTierConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]uint32)
	word := func(round, p int) uint32 { return uint32(round)<<16 | uint32(p) }

	n := int(dev.Size() / 4)
	for round := 0; round < 8; round++ {
		dev.ArmFault(FaultPlan{Program: int64(20 + round*13), Seed: uint64(round)})
		for p := 0; p < n; p++ {
			addr := uint64(p) * 4
			if _, err := dev.WriteWordErr(addr, word(round, p)); err != nil {
				if err == ErrPowerFailure || dev.Crashed() {
					break
				}
				t.Fatalf("round %d: write: %v", round, err)
			}
			model[addr] = word(round, p)
		}
		if !dev.Crashed() {
			dev.CrashPowerCycle()
		}
		rep, err := dev.Recover()
		if err != nil {
			t.Fatalf("round %d: recovery: %v (report %+v)", round, err, rep)
		}
		for addr, want := range model {
			got, _, err := dev.ReadWordErr(addr)
			if err != nil {
				t.Fatalf("round %d: read at %d: %v", round, addr, err)
			}
			if got != want {
				t.Fatalf("round %d: read %#x at %d, want %#x", round, got, addr, want)
			}
		}
		if err := dev.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestMapTierDiffCOWCrashSweep pins the §3.1 retarget order under
// DiffFlush + MapTier: copy-on-write must pull the mapping page into
// the tier's cache before the SRAM frame exists, or a crash inside
// that pull (an eviction writeback or a translation clean programs
// Flash) leaves a buffered frame whose table entry still points at
// Flash and the mount fails. The window is narrow — of these 800
// schedules exactly one (k = 389, no transaction) lands in it — so the
// seeds are the test: FuzzMapTierRecovery's geometry, 300 seeded
// writes, power armed to fail at the k-th program from there.
func TestMapTierDiffCOWCrashSweep(t *testing.T) {
	for _, txn := range []bool{false, true} {
		for k := 1; k <= 400; k++ {
			dev, err := New(Config{
				PageSize:          64,
				PagesPerSegment:   16,
				Segments:          8,
				Banks:             2,
				Policy:            HybridPolicy,
				PartitionSegments: 2,
				WearThreshold:     4,
				BufferPages:       24,
				FlushPolicy:       DiffFlush,
				MapTier:           &MapTierConfig{CacheFrames: 8, SegmentPages: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(uint64(k)*7919 + 3)
			words := uint64(dev.Size()) / 4
			model := make(map[uint64]uint32) // acknowledged and committed
			pend := make(map[uint64]uint32)  // acknowledged inside the open transaction
			if txn {
				if err := dev.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2300 && !dev.Crashed(); i++ {
				if i == 300 {
					dev.ArmFault(FaultPlan{Program: int64(k), Seed: uint64(k)})
				}
				addr, v := rng.Uint64()%words*4, uint32(rng.Uint64())
				if _, err := dev.WriteWordErr(addr, v); err != nil {
					break
				}
				pend[addr] = v
				if txn && i%17 != 16 {
					continue
				}
				if txn {
					if dev.Commit() != nil || dev.Begin() != nil {
						break
					}
				}
				for a, w := range pend {
					model[a] = w
				}
				clear(pend)
			}
			if !dev.Crashed() {
				dev.CrashPowerCycle()
			}
			if rep, err := dev.Recover(); err != nil {
				t.Fatalf("txn=%v k=%d: recovery: %v (report %+v)", txn, k, err, rep)
			}
			for addr, want := range model {
				if _, torn := pend[addr]; torn {
					continue // the commit the power cut interrupted may have landed
				}
				if got, _, err := dev.ReadWordErr(addr); err != nil || got != want {
					t.Fatalf("txn=%v k=%d: read %#x (%v) at %d, want %#x", txn, k, got, err, addr, want)
				}
			}
			if err := invariant.CheckDevice(dev.Core()); err != nil {
				t.Fatalf("txn=%v k=%d: %v", txn, k, err)
			}
		}
	}
}
