package envy_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"envy"
)

// The Device front-end documents sequential consistency under
// concurrent use: every method call lands in one total order and sees
// all effects of the calls before it. These tests drive that claim
// under the race detector — mixed reads, writes, transactions, stats
// snapshots, and a power failure in the middle of it all.

func concurrencyConfig() envy.Config {
	return envy.Config{
		PageSize:          128,
		PagesPerSegment:   32,
		Segments:          16,
		Banks:             4,
		Policy:            envy.HybridPolicy,
		PartitionSegments: 4,
		WearThreshold:     16,
		BufferPages:       64,
		ParallelFlush:     2,
	}
}

// crashedErr reports whether err is one of the two expected power-
// failure rejections (the crash itself, or an access while down).
func crashedErr(err error) bool {
	return errors.Is(err, envy.ErrPowerFailure) || errors.Is(err, envy.ErrCrashed)
}

// hammer runs workers goroutines of mixed word reads and writes, each
// over its own address stripe, plus one transaction owner and one
// stats observer. Each worker verifies read-after-write on its own
// stripe — no other goroutine touches it, so sequential consistency
// makes the read-back exact, with the one exception the Device doc
// spells out: the transaction is device-wide, so a plain write that
// lands while it is open rolls back with it. rollbacks is odd while a
// Rollback call is in progress and changes across every one, which is
// how a worker tells that exception from a lost write. If
// tolerateCrash is set, workers stand
// down quietly once the device goes down; otherwise any error fails
// the test.
func hammer(t *testing.T, dev *envy.Device, workers, opsPerWorker int, tolerateCrash bool) {
	t.Helper()
	stripe := uint64(4096)
	var wg sync.WaitGroup
	var rollbacks atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * stripe
			for i := 0; i < opsPerWorker; i++ {
				// Stride by 132 bytes so successive ops land on
				// different pages: buffer pressure, flushes, and
				// cleaning all happen under the hammer.
				addr := base + uint64(i*132)%stripe
				want := uint32(w)<<24 | uint32(i)
				before := rollbacks.Load()
				if _, err := dev.WriteWordErr(addr, want); err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: write %#x: %v", w, addr, err)
					return
				}
				got, _, err := dev.ReadWordErr(addr)
				if err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: read %#x: %v", w, addr, err)
					return
				}
				if got != want && before%2 == 0 && rollbacks.Load() == before {
					t.Errorf("worker %d: read %#x = %#x, want %#x", w, addr, got, want)
					return
				}
			}
		}(w)
	}

	// One goroutine owns the device-wide transaction, alternating
	// commits and rollbacks over its own stripe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := uint64(workers) * stripe
		buf := make([]byte, 8)
		for round := 0; round < opsPerWorker/10+1; round++ {
			if err := dev.Begin(); err != nil {
				if tolerateCrash && crashedErr(err) {
					return
				}
				t.Errorf("txn: begin: %v", err)
				return
			}
			binary.LittleEndian.PutUint64(buf, uint64(round))
			if _, err := dev.WriteErr(buf, base+uint64(round%64)*8); err != nil {
				if tolerateCrash && crashedErr(err) {
					return
				}
				t.Errorf("txn: write: %v", err)
				return
			}
			var err error
			if round%2 == 0 {
				err = dev.Commit()
			} else {
				rollbacks.Add(1)
				err = dev.Rollback()
				rollbacks.Add(1)
			}
			if err != nil {
				if tolerateCrash && crashedErr(err) {
					return
				}
				t.Errorf("txn: close round %d: %v", round, err)
				return
			}
		}
	}()

	// An observer snapshots stats and occasionally lets the device idle
	// — both must be race-free against the access goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < opsPerWorker/4; i++ {
			s := dev.Stats()
			if s.Writes < 0 {
				t.Error("observer: negative write count")
				return
			}
			if i%16 == 0 {
				dev.Idle(100_000) // 100µs of background progress
			}
		}
	}()

	wg.Wait()
}

func TestConcurrentAccess(t *testing.T) {
	dev, err := envy.New(concurrencyConfig())
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, dev, 8, 300, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-hammer consistency: %v", err)
	}
	s := dev.Stats()
	if s.Writes == 0 || s.Reads == 0 {
		t.Fatalf("hammer recorded no traffic: %+v", s)
	}
	if s.FlushOps.Completed == 0 {
		t.Fatalf("no flushes completed under load: %+v", s.FlushOps)
	}
}

// TestConcurrentCrashRecover arms a fault so the device dies mid-
// hammer, then mounts it again with Recover while nothing else runs.
// Acknowledged state must come back consistent.
func TestConcurrentCrashRecover(t *testing.T) {
	cfg := concurrencyConfig()
	cfg.FaultPlan = &envy.FaultPlan{Program: 40, Seed: 0x9e3779b97f4a7c15}
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, dev, 8, 300, true)
	if !dev.Crashed() {
		t.Fatal("fault plan never fired during the concurrent hammer")
	}
	report, err := dev.Recover()
	if err != nil {
		t.Fatalf("recover: %v (report: %v)", err, report)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery consistency: %v", err)
	}
	// The recovered device must serve traffic again, concurrently.
	hammer(t, dev, 4, 100, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery hammer consistency: %v", err)
	}
}

// TestConcurrentStatsString keeps fmt happy about the exported stats
// shape — a cheap guard that the per-op counters marshal sensibly.
func TestConcurrentStatsString(t *testing.T) {
	dev, err := envy.New(concurrencyConfig())
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, dev, 2, 50, false)
	s := dev.Stats()
	line := fmt.Sprintf("%+v", s.FlushOps)
	if line == "" {
		t.Fatal("empty op counter rendering")
	}
}
