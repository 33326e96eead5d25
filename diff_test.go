package envy_test

import (
	"testing"
	"time"

	"envy"
	"envy/internal/invariant"
	"envy/internal/sim"
)

// diffConfig is the shared small geometry for differential-policy
// tests: the golden geometry with the diff write-back enabled.
func diffConfig() envy.Config {
	cfg := goldenConfig(envy.HybridPolicy)
	cfg.FlushPolicy = envy.DiffFlush
	return cfg
}

// TestProgramBytesFullPage pins the write-amplification numerator's
// baseline: under the default full-page policy every Flash program —
// flush, cleaning copy, wear-swap relocation — moves exactly one
// PageSize payload, so ProgramBytes must equal programs × PageSize.
func TestProgramBytesFullPage(t *testing.T) {
	cfg := goldenConfig(envy.HybridPolicy)
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0xb17e5)
	size := uint64(dev.Size())
	for i := 0; i < 4000; i++ {
		addr := rng.Uint64n(size/4) * 4
		dev.WriteWord(addr, uint32(i))
		if i%256 == 0 {
			dev.Idle(2 * time.Millisecond)
		}
	}
	dev.Idle(time.Second)
	s := dev.Stats()
	programs := dev.Core().Array().Programs()
	if programs == 0 {
		t.Fatal("workload performed no Flash programs; nothing pinned")
	}
	if want := programs * int64(cfg.PageSize); s.ProgramBytes != want {
		t.Errorf("ProgramBytes = %d under full-page policy, want programs × PageSize = %d × %d = %d",
			s.ProgramBytes, programs, cfg.PageSize, want)
	}
	if s.DiffRecordsWritten != 0 || s.DiffUnitPrograms != 0 || s.DiffMerges != 0 || s.DiffPromotions != 0 {
		t.Errorf("full-page policy reported diff activity: %+v", s)
	}
}

// TestDiffReadBack drives small scattered writes through the
// differential policy and verifies every word reads back through the
// base∪chain merge, with diff records actually written and the
// program volume strictly below the full-page equivalent.
func TestDiffReadBack(t *testing.T) {
	dev, err := envy.New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	var chk invariant.Checker
	rng := sim.NewRNG(0xd1ff1)
	size := uint64(dev.Size())
	model := make(map[uint64]uint32)
	for i := 0; i < 6000; i++ {
		// Cluster addresses so pages are rewritten with small deltas —
		// the chain-building pattern the policy exists for.
		addr := rng.Uint64n(size/64) * 4
		v := uint32(i)<<8 | uint32(addr&0xff)
		dev.WriteWord(addr, v)
		model[addr] = v
		if i%512 == 0 {
			dev.Idle(2 * time.Millisecond)
			if err := chk.Check(dev.Core()); err != nil {
				t.Fatalf("after %d writes: %v", i, err)
			}
		}
	}
	dev.Idle(time.Second)
	if err := chk.Check(dev.Core()); err != nil {
		t.Fatal(err)
	}
	for addr, want := range model {
		if v, _ := dev.ReadWord(addr); v != want {
			t.Fatalf("read %#x at %d, want %#x", v, addr, want)
		}
	}
	s := dev.Stats()
	if s.DiffRecordsWritten == 0 {
		t.Error("differential policy wrote no diff records")
	}
	if s.DiffMerges == 0 {
		t.Error("no base∪chain merges happened; chains were never read or consolidated")
	}
	programs := dev.Core().Array().Programs()
	if full := programs * int64(dev.Core().Geometry().PageSize); s.ProgramBytes >= full {
		t.Errorf("ProgramBytes = %d not below full-page equivalent %d", s.ProgramBytes, full)
	}
}

// TestDiffPromotion pins the chain-length bound: rewriting one page
// more times than DiffMaxChain allows must promote it to a full-page
// flush that supersedes base and chain.
func TestDiffPromotion(t *testing.T) {
	cfg := diffConfig()
	cfg.DiffMaxChain = 2
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chk invariant.Checker
	for round := 0; round < 12; round++ {
		// Fill the buffer past the flush high-water mark so every
		// round's small write actually drains, then touch the victim.
		for p := uint64(0); p < 56; p++ {
			dev.WriteWord(4096+p*256, uint32(round)<<16|uint32(p))
		}
		dev.WriteWord(0, uint32(round))
		dev.Idle(50 * time.Millisecond)
		if err := chk.Check(dev.Core()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	s := dev.Stats()
	if s.DiffRecordsWritten == 0 {
		t.Fatal("victim page never took the diff path")
	}
	if s.DiffPromotions == 0 {
		t.Errorf("chain never promoted to a full-page flush (records %d, merges %d)",
			s.DiffRecordsWritten, s.DiffMerges)
	}
	if v, _ := dev.ReadWord(0); v != 11 {
		t.Errorf("victim reads %d after promotion rounds, want 11", v)
	}
}

// TestDiffTransactions runs committed and rolled-back transactions
// over chained pages: shadows, the copy-on-write keep window, and the
// rollback path must preserve exactly the committed image.
func TestDiffTransactions(t *testing.T) {
	dev, err := envy.New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	var chk invariant.Checker
	rng := sim.NewRNG(0xd1ff7)
	size := uint64(dev.Size())
	model := make(map[uint64]uint32)
	for round := 0; round < 40; round++ {
		// Plain writes build chains between transactions.
		for i := 0; i < 120; i++ {
			addr := rng.Uint64n(size/64) * 4
			v := uint32(round)<<16 | uint32(i)
			dev.WriteWord(addr, v)
			model[addr] = v
		}
		dev.Idle(5 * time.Millisecond)
		if err := dev.Begin(); err != nil {
			t.Fatal(err)
		}
		pend := make(map[uint64]uint32)
		for i := 0; i < 30; i++ {
			addr := rng.Uint64n(size/64) * 4
			v := uint32(round)<<16 | 0x8000 | uint32(i)
			dev.WriteWord(addr, v)
			pend[addr] = v
		}
		if round%2 == 0 {
			if err := dev.Commit(); err != nil {
				t.Fatal(err)
			}
			for a, v := range pend {
				model[a] = v
			}
		} else if err := dev.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := chk.Check(dev.Core()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	dev.Idle(time.Second)
	for addr, want := range model {
		if v, _ := dev.ReadWord(addr); v != want {
			t.Fatalf("read %#x at %d, want %#x", v, addr, want)
		}
	}
	if err := chk.Check(dev.Core()); err != nil {
		t.Fatal(err)
	}
}

// TestDiffCleaningConsolidates forces enough churn that the cleaner
// must copy chained pages, and verifies consolidation: after heavy
// cleaning the surviving image is intact and chains were merged (not
// copied record-by-record — the cleaner has no way to copy a unit
// whose members belong to different segments' live data).
func TestDiffCleaningConsolidates(t *testing.T) {
	cfg := diffConfig()
	cfg.Segments = 8
	cfg.PagesPerSegment = 32
	cfg.BufferPages = 24
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chk invariant.Checker
	rng := sim.NewRNG(0xc1ea2)
	size := uint64(dev.Size())
	model := make(map[uint64]uint32)
	for i := 0; i < 20000; i++ {
		addr := rng.Uint64n(size/4) * 4
		v := uint32(i)
		dev.WriteWord(addr, v)
		model[addr] = v
		if i%997 == 0 {
			dev.Idle(time.Millisecond)
			if err := chk.Check(dev.Core()); err != nil {
				t.Fatalf("after %d writes: %v", i, err)
			}
		}
	}
	dev.Idle(time.Second)
	s := dev.Stats()
	if s.SegmentCleans == 0 {
		t.Fatal("workload never triggered cleaning; consolidation not covered")
	}
	if s.DiffMerges == 0 {
		t.Error("cleaning over chained pages performed no merges")
	}
	for addr, want := range model {
		if v, _ := dev.ReadWord(addr); v != want {
			t.Fatalf("read %#x at %d, want %#x", v, addr, want)
		}
	}
	if err := chk.Check(dev.Core()); err != nil {
		t.Fatal(err)
	}
}

// TestDiffConfigRejected pins the configuration guard: a negative chain
// bound is an error.
func TestDiffConfigRejected(t *testing.T) {
	cfg := diffConfig()
	cfg.DiffMaxChain = -1
	if _, err := envy.New(cfg); err == nil {
		t.Error("negative DiffMaxChain accepted; want error")
	}
}
