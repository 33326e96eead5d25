// Suspend/resume coverage for the background operations the extensions
// added — mapping-page writebacks (MapTier) and shared diff-unit
// programs (DiffFlush) must be preempted by host traffic and pick up
// again like the paper's flushes (§3.4) — and a crash armed while
// operations sit suspended, firing as they resume.
package envy_test

import (
	"errors"
	"testing"
	"time"

	"envy"
	"envy/internal/invariant"
	"envy/internal/sim"
	"envy/internal/stats"
)

// suspendResumeConfig is a small geometry that keeps both the map tier
// and the diff policy busy enough for their background operations to be
// preempted by host traffic.
func suspendResumeConfig() envy.Config {
	return envy.Config{
		PageSize:        256,
		PagesPerSegment: 64,
		Segments:        32,
		Banks:           8,
		Policy:          envy.HybridPolicy,
		WearThreshold:   8,
		BufferPages:     64,
		ParallelFlush:   4,
	}
}

// driveOps runs a uniform seeded write/read/idle mix on dev.
func driveOps(t *testing.T, dev *envy.Device, seed uint64, ops int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	words := uint64(dev.Size()) / 4
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			if _, err := dev.WriteWordErr(rng.Uint64n(words)*4, uint32(rng.Uint64())); err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
		case r < 8:
			if _, _, err := dev.ReadWordErr(rng.Uint64n(words) * 4); err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
		default:
			dev.Idle(time.Duration(1+rng.Intn(10)) * time.Microsecond)
		}
	}
	dev.Idle(2 * time.Millisecond)
	if err := invariant.CheckDevice(dev.Core()); err != nil {
		t.Fatal(err)
	}
}

// TestMapTierOpsSuspendResume pins preempt/suspend/resume of the
// map-tier background operations (mapping-page writebacks).
func TestMapTierOpsSuspendResume(t *testing.T) {
	cfg := suspendResumeConfig()
	cfg.MapTier = &envy.MapTierConfig{CacheFrames: 8}
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, dev, 0x3a97, 12000)
	ops := dev.Stats().MapFlushOps
	if ops.Completed == 0 {
		t.Fatal("no mapping-page writebacks ran; the map tier was idle")
	}
	if ops.Suspensions == 0 || ops.Resumes == 0 {
		t.Errorf("map-tier flush ops were never preempted and resumed (suspensions %d, resumes %d)",
			ops.Suspensions, ops.Resumes)
	}
}

// TestDiffOpsSuspendResume pins the same for the differential flush
// policy's shared diff-unit programs.
func TestDiffOpsSuspendResume(t *testing.T) {
	cfg := suspendResumeConfig()
	cfg.FlushPolicy = envy.DiffFlush
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, dev, 0xd1ff, 12000)
	if dev.Stats().DiffUnitPrograms == 0 {
		t.Fatal("no diff units programmed; the diff policy was idle")
	}
	all := dev.Core().OpStats()
	ops := all.Get(stats.OpDiffFlush)
	if ops.Completed == 0 {
		t.Fatal("no diff-flush operations completed on the scheduler")
	}
	if ops.Suspensions == 0 || ops.Resumes == 0 {
		t.Errorf("diff-flush ops were never preempted and resumed (suspensions %d, resumes %d)",
			ops.Suspensions, ops.Resumes)
	}
}

// TestCrashMidResume arms a crash while background operations are
// suspended mid-flight behind host traffic, lets it fire as they
// resume, and requires full recovery: no acknowledged write lost,
// invariants intact.
func TestCrashMidResume(t *testing.T) {
	dev, err := envy.New(suspendResumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0xc4a5)
	words := uint64(dev.Size()) / 4
	model := make(map[uint64]uint32)
	// Build up suspended background work, then arm a program-count plan
	// so the crash lands inside the resumed operations' window.
	armed := false
	crashed := false
	for i := 0; i < 30000 && !crashed; i++ {
		addr := rng.Uint64n(words/2) * 4
		v := uint32(rng.Uint64())
		_, err := dev.WriteWordErr(addr, v)
		if err != nil {
			if !errors.Is(err, envy.ErrPowerFailure) {
				t.Fatalf("write: %v", err)
			}
			crashed = true
			break
		}
		model[addr] = v
		if !armed && dev.Stats().FlushOps.Suspensions > 0 {
			dev.ArmFault(envy.FaultPlan{Program: 3, Seed: 0xc4a5})
			armed = true
		}
		if i%64 == 63 {
			dev.Idle(time.Duration(1+rng.Intn(50)) * time.Microsecond)
		}
		if dev.Crashed() {
			crashed = true
		}
	}
	if !armed {
		t.Fatal("background operations were never suspended; the mid-resume window was not reached")
	}
	if !crashed {
		t.Fatal("armed crash never fired")
	}
	if _, err := dev.Recover(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	for addr, want := range model {
		v, _, err := dev.ReadWordErr(addr)
		if err != nil {
			t.Fatalf("post-recovery read at %d: %v", addr, err)
		}
		if v != want {
			t.Fatalf("acknowledged write lost at %d: read %#x, want %#x", addr, v, want)
		}
	}
	if err := invariant.CheckDevice(dev.Core()); err != nil {
		t.Fatal(err)
	}
}
