package pagetable

import (
	"testing"
	"testing/quick"

	"envy/internal/sim"
)

func TestLookupUnmapped(t *testing.T) {
	tbl := New(16)
	if _, ok := tbl.Lookup(5); ok {
		t.Error("fresh table reported a mapping")
	}
}

func TestMapFlashAndSRAM(t *testing.T) {
	tbl := New(16)
	tbl.MapFlash(3, 777)
	loc, ok := tbl.Lookup(3)
	if !ok || loc.InSRAM || loc.PPN != 777 {
		t.Errorf("Lookup = %+v ok=%v", loc, ok)
	}
	tbl.MapSRAM(3)
	loc, ok = tbl.Lookup(3)
	if !ok || !loc.InSRAM {
		t.Errorf("Lookup after MapSRAM = %+v ok=%v", loc, ok)
	}
	tbl.MapFlash(3, 12)
	loc, _ = tbl.Lookup(3)
	if loc.InSRAM || loc.PPN != 12 {
		t.Errorf("Lookup after remap = %+v", loc)
	}
	tbl.Unmap(3)
	if _, ok := tbl.Lookup(3); ok {
		t.Error("Unmap left a mapping")
	}
}

func TestMapFlashRoundTrip(t *testing.T) {
	tbl := New(1)
	if err := quick.Check(func(ppnRaw uint32) bool {
		ppn := ppnRaw &^ (uint32(1) << 31) // stay in the encodable range
		if ppn == ^uint32(0)>>1<<1 {
			return true
		}
		tbl.MapFlash(0, ppn)
		loc, ok := tbl.Lookup(0)
		return ok && !loc.InSRAM && loc.PPN == ppn
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMapFlashOverflowPanics(t *testing.T) {
	tbl := New(1)
	defer func() {
		if recover() == nil {
			t.Error("PPN with the SRAM bit set did not panic")
		}
	}()
	tbl.MapFlash(0, 1<<31)
}

func TestSRAMBytes(t *testing.T) {
	tbl := New(1000)
	if got := tbl.SRAMBytes(); got != 6000 {
		t.Errorf("SRAMBytes = %d, want 6000", got)
	}
	// Paper check (§3.3): 1 GB of Flash at 256-byte pages needs 24 MB.
	gb := New((1 << 30) / 256)
	if got := gb.SRAMBytes(); got != 24<<20 {
		t.Errorf("1GB page table = %d bytes, want 24MiB", got)
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestRange(t *testing.T) {
	sh := New(10)
	sh.MapFlash(0, 42)
	sh.MapSRAM(5)
	sh.MapFlash(9, 7)
	var got []uint32
	sh.Range(func(lpn uint32, loc Location, ok bool) {
		got = append(got, lpn)
		want, wok := sh.Lookup(lpn)
		if loc != want || ok != wok {
			t.Errorf("Range(%d) = %+v/%v, Lookup says %+v/%v", lpn, loc, ok, want, wok)
		}
	})
	if len(got) != 10 {
		t.Fatalf("Range visited %d pages, want 10", len(got))
	}
	for i, lpn := range got {
		if lpn != uint32(i) {
			t.Fatalf("Range visited %d at position %d; order must be ascending", lpn, i)
		}
	}
}

func TestMMUHitMiss(t *testing.T) {
	m := NewMMU(4, 100*sim.Nanosecond)
	if d := m.Translate(1); d != 100 {
		t.Errorf("first translation cost %v, want 100 (cold miss)", d)
	}
	if d := m.Translate(1); d != 0 {
		t.Errorf("second translation cost %v, want 0 (hit)", d)
	}
	// 5 conflicts with 1 in a 4-entry direct-mapped cache.
	if d := m.Translate(5); d != 100 {
		t.Errorf("conflicting translation cost %v, want 100", d)
	}
	if d := m.Translate(1); d != 100 {
		t.Errorf("evicted translation cost %v, want 100", d)
	}
	lookups, misses := m.Stats()
	if lookups != 4 || misses != 3 {
		t.Errorf("stats = %d/%d, want 4/3", lookups, misses)
	}
	if got := m.HitRate(); got != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", got)
	}
}

func TestMMUDisabled(t *testing.T) {
	m := NewMMU(0, 100*sim.Nanosecond)
	for i := 0; i < 5; i++ {
		if d := m.Translate(7); d != 100 {
			t.Fatalf("disabled MMU translation cost %v, want 100", d)
		}
	}
	if m.HitRate() != 0 {
		t.Error("disabled MMU should never hit")
	}
}

func TestMMUUpdateAndInvalidate(t *testing.T) {
	m := NewMMU(4, 100*sim.Nanosecond)
	m.Update(2)
	if d := m.Translate(2); d != 0 {
		t.Errorf("translation after Update cost %v, want 0", d)
	}
	m.Invalidate(2)
	if d := m.Translate(2); d != 100 {
		t.Errorf("translation after Invalidate cost %v, want 100", d)
	}
	// Invalidate of a non-cached page must not disturb the cached one.
	m.Invalidate(6) // maps to the same set as 2 but tag differs... set is now 2
	if d := m.Translate(2); d != 0 {
		t.Errorf("translation after foreign Invalidate cost %v, want 0", d)
	}
}

func TestMMUEmptyHitRate(t *testing.T) {
	m := NewMMU(4, 0)
	if m.HitRate() != 0 {
		t.Error("HitRate with no lookups should be 0")
	}
}
