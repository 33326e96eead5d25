package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/sim"
)

// ram is a trivial in-host Memory for fast unit tests.
type ram struct{ b []byte }

func newRAM(n int) *ram { return &ram{b: make([]byte, n)} }

func (r *ram) Read(p []byte, addr uint64) sim.Duration  { copy(p, r.b[addr:]); return 0 }
func (r *ram) Write(p []byte, addr uint64) sim.Duration { copy(r.b[addr:], p); return 0 }

func newDeviceMem(t *testing.T) *core.Device {
	t.Helper()
	d, err := core.New(core.Config{
		Geometry: flash.Geometry{PageSize: 256, PagesPerSegment: 64, Segments: 32, Banks: 8},
		Cleaning: cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInsertSearch(t *testing.T) {
	tr, err := New(newRAM(1<<20), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	perm := make([]uint64, n)
	r := sim.NewRNG(1)
	for i := range perm {
		perm[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, k := range perm {
		if err := tr.Insert(k*2, k*100); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tr.Search(k * 2)
		if !ok || v != k*100 {
			t.Fatalf("Search(%d) = %d,%v", k*2, v, ok)
		}
		if _, ok := tr.Search(k*2 + 1); ok {
			t.Fatalf("Search(%d) found a missing key", k*2+1)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d for %d keys, expected ≥ 3", tr.Height(), n)
	}
}

func TestInsertOverwrites(t *testing.T) {
	tr, _ := New(newRAM(1<<16), 0, 1<<16)
	tr.Insert(7, 1)
	tr.Insert(7, 2)
	if v, ok := tr.Search(7); !ok || v != 2 {
		t.Errorf("Search = %d,%v, want 2", v, ok)
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := New(newRAM(1<<20), 0, 1<<20)
	for k := uint64(0); k < 500; k++ {
		tr.Insert(k, k)
	}
	if !tr.Update(123, 9999) {
		t.Fatal("Update of existing key failed")
	}
	if v, _ := tr.Search(123); v != 9999 {
		t.Errorf("value after Update = %d", v)
	}
	if tr.Update(100000, 1) {
		t.Error("Update of missing key claimed success")
	}
}

func TestRange(t *testing.T) {
	tr, _ := New(newRAM(1<<20), 0, 1<<20)
	for k := uint64(0); k < 300; k++ {
		tr.Insert(k*3, k)
	}
	var got []uint64
	tr.Range(30, 60, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	// Early termination.
	count := 0
	tr.Range(0, 1<<62, func(k, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early-terminated Range visited %d", count)
	}
}

func TestBulkLoad(t *testing.T) {
	const n = 20000
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i * 7), Value: uint64(i)}
	}
	tr, err := Load(newRAM(8<<20), 0, 8<<20, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if v, ok := tr.Search(p.Key); !ok || v != p.Value {
			t.Fatalf("Search(%d) = %d,%v want %d", p.Key, v, ok, p.Value)
		}
	}
	// Inserts after a bulk load still work (slack was left in nodes).
	for i := 0; i < 1000; i++ {
		k := uint64(i*7 + 3)
		if err := tr.Insert(k, 555); err != nil {
			t.Fatal(err)
		}
		if v, ok := tr.Search(k); !ok || v != 555 {
			t.Fatalf("post-load Search(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	if _, err := Load(newRAM(1<<16), 0, 1<<16, []KV{{5, 1}, {4, 1}}); err == nil {
		t.Error("unsorted Load accepted")
	}
	if _, err := Load(newRAM(1<<16), 0, 1<<16, []KV{{5, 1}, {5, 2}}); err == nil {
		t.Error("duplicate-key Load accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := Load(newRAM(1<<16), 0, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Search(1); ok {
		t.Error("empty tree found a key")
	}
	if err := tr.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Search(1); !ok || v != 2 {
		t.Errorf("Search after insert = %d,%v", v, ok)
	}
}

func TestHeightMatchesPaperFigure12(t *testing.T) {
	// Figure 12: 1,550 teller records -> 3 index levels;
	// 155 branch records -> 2 levels.
	heightFor := func(n int) int {
		pairs := make([]KV, n)
		for i := range pairs {
			pairs[i] = KV{Key: uint64(i + 1), Value: uint64(i)}
		}
		tr, err := Load(newRAM(64<<20), 0, 64<<20, pairs)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Height()
	}
	if h := heightFor(155); h != 2 {
		t.Errorf("branch tree height = %d, want 2", h)
	}
	if h := heightFor(1550); h != 3 {
		t.Errorf("teller tree height = %d, want 3", h)
	}
}

func TestRegionExhaustion(t *testing.T) {
	// Room for only a handful of nodes.
	tr, err := New(newRAM(1<<16), 0, headerBytes+3*NodeBytes)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for k := uint64(0); k < 1000; k++ {
		if err := tr.Insert(k, k); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("inserts never exhausted the region")
	}
}

func TestOnDevicePersistence(t *testing.T) {
	d := newDeviceMem(t)
	base := uint64(0)
	limit := uint64(d.Size()) / 2
	tr, err := New(d, base, limit)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 400; k++ {
		if err := tr.Insert(k, k^0xABCD); err != nil {
			t.Fatal(err)
		}
	}
	// Survive a power cycle and reattach.
	d.PowerCycle()
	tr2, err := Open(d, base, limit)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() != tr.Height() {
		t.Errorf("height after reopen = %d, want %d", tr2.Height(), tr.Height())
	}
	for k := uint64(0); k < 400; k++ {
		if v, ok := tr2.Search(k); !ok || v != k^0xABCD {
			t.Fatalf("Search(%d) after reopen = %d,%v", k, v, ok)
		}
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(newRAM(1<<16), 0, 1<<16); err == nil {
		t.Error("Open on zeroed memory accepted")
	}
}

func TestSearchGeneratesBoundedIO(t *testing.T) {
	d := newDeviceMem(t)
	pairs := make([]KV, 10000)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i), Value: uint64(i)}
	}
	tr, err := Load(d, 0, uint64(d.Size()), pairs)
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	tr.Search(5000)
	reads := d.Counters().HostReads
	// Height ~3: header + ~5 key probes (2 words each) + pointer (2
	// words) per level — far less than reading whole nodes.
	maxPerLevel := int64(1 + 5*2 + 2)
	if reads > int64(tr.Height())*maxPerLevel {
		t.Errorf("Search issued %d reads for height %d", reads, tr.Height())
	}
}

func TestQuickRandomAgainstMap(t *testing.T) {
	tr, _ := New(newRAM(4<<20), 0, 4<<20)
	model := make(map[uint64]uint64)
	err := quick.Check(func(ops []uint32) bool {
		for _, op := range ops {
			k := uint64(op % 4096)
			v := uint64(op)
			tr.Insert(k, v)
			model[k] = v
		}
		for k, v := range model {
			got, ok := tr.Search(k)
			if !ok || got != v {
				return false
			}
		}
		// Verify ordered iteration agrees with the sorted model keys.
		var keys []uint64
		tr.Range(0, 1<<62, func(k, _ uint64) bool { keys = append(keys, k); return true })
		if len(keys) != len(model) {
			return false
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestSearchDoesNotAllocate pins the tree-owned word buffer: a descent
// through the Memory interface — here a real device, so the access
// path is included — costs no heap allocation. A local [8]byte per
// probed key used to escape through the interface, 18.6 allocations
// per account-tree search.
func TestSearchDoesNotAllocate(t *testing.T) {
	dev := newDeviceMem(t)
	const n = 5000
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i)*2 + 2, Value: uint64(i)}
	}
	tree, err := Load(dev, 0, uint64(dev.Size()), pairs)
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(2)
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := tree.Search(key); !ok {
			t.Fatalf("key %d not found", key)
		}
		key = key%(2*n) + 2
	}); avg != 0 {
		t.Errorf("Search allocates %.2f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if !tree.Update(key, key) {
			t.Fatalf("key %d not found", key)
		}
		key = key%(2*n) + 2
	}); avg != 0 {
		t.Errorf("Update allocates %.2f times per call, want 0", avg)
	}
}
