package envy_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"envy"
)

// The device behaves like ordinary memory that happens to be
// persistent: word-sized reads and writes, no block boundaries, no
// serialization formats (§1 of the paper).
func Example() {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		panic(err)
	}
	dev.WriteWord(0, 1994)
	dev.PowerCycle() // power failure: nothing is lost
	v, _ := dev.ReadWord(0)
	fmt.Println(v)
	// Output: 1994
}

// Transactions give atomic multi-page updates via the copy-on-write
// shadow pages (§6): rollback is a page-table flip.
func ExampleDevice_Rollback() {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		panic(err)
	}
	dev.WriteWord(0, 100)
	dev.Idle(time.Second) // let the page reach Flash

	dev.Begin()
	dev.WriteWord(0, 999) // oops
	dev.Rollback()

	v, _ := dev.ReadWord(0)
	fmt.Println(v)
	// Output: 100
}

// Stats exposes the measurements the paper's evaluation reports:
// latencies, Flash operation counts, cleaning cost, wear.
func ExampleDevice_Stats() {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		dev.WriteWord(uint64(i)*256, uint32(i))
	}
	s := dev.Stats()
	fmt.Println(s.Writes, s.CopyOnWrites > 0)
	// Output: 100 true
}

// eNVy acknowledges a write as soon as it lands in the battery-backed
// SRAM buffer (§3.2); Flash programs, cleans and erases happen later,
// in the background. The interesting power failure is therefore one
// that tears a page halfway through its program. Recover mounts the
// wreckage from Flash plus SRAM, and every acknowledged write is back.
func ExampleDevice_Recover() {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		panic(err)
	}
	// The 40th Flash page program tears: the first programs start once
	// the write buffer flushes, so the power fails in background work
	// the host never sees.
	dev.ArmFault(envy.FaultPlan{Program: 40, Seed: 1})

	// Every write that returns nil is acknowledged.
	addr := func(i int) uint64 { return uint64(i*4) % uint64(dev.Size()) }
	acked := 0
	for ; !dev.Crashed(); acked++ {
		if _, err := dev.WriteWordErr(addr(acked), uint32(acked)+1); err != nil {
			if !errors.Is(err, envy.ErrPowerFailure) {
				panic(err)
			}
			break
		}
		dev.Idle(20 * time.Microsecond) // background work between writes
	}
	fmt.Printf("%d writes acknowledged before the crash\n", acked)

	if _, _, err := dev.ReadWordErr(0); errors.Is(err, envy.ErrCrashed) {
		fmt.Println("device is down:", err)
	}

	rep, err := dev.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered: %d torn page quarantined, %d stray flush reset\n",
		rep.TornQuarantined, rep.StrayFlushes)

	for i := 0; i < acked; i++ {
		if v, _, err := dev.ReadWordErr(addr(i)); err != nil || v != uint32(i)+1 {
			fmt.Printf("write %d lost: %#x, %v\n", i, v, err)
			return
		}
	}
	fmt.Println("every acknowledged write intact")

	dev.WriteWord(0, 0xF00D)
	v, _ := dev.ReadWord(0)
	fmt.Printf("back in service: %#x\n", v)
	// Output:
	// 98249 writes acknowledged before the crash
	// device is down: core: device crashed; recovery required
	// recovered: 1 torn page quarantined, 1 stray flush reset
	// every acknowledged write intact
	// back in service: 0xf00d
}

// Shadow copies (§6) make a transaction's pre-images free: the old
// Flash pages simply stay valid until Commit. A bank transfer that
// aborts halfway rolls back, the same transfer commits, and a
// transaction rolled back after the cleaner has run under it still
// finds its shadow.
func ExampleDevice_Commit() {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		panic(err)
	}
	const alice, bob = uint64(0), uint64(4096) // two pages, two shadows
	balance := func(addr uint64) int64 {
		var b [8]byte
		dev.Read(b[:], addr)
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	setBalance := func(addr uint64, v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		dev.Write(b[:], addr)
	}
	transfer := func(amount int64, abort bool) error {
		if err := dev.Begin(); err != nil {
			return err
		}
		setBalance(alice, balance(alice)-amount)
		if abort {
			return dev.Rollback()
		}
		setBalance(bob, balance(bob)+amount)
		return dev.Commit()
	}
	setBalance(alice, 1000)
	setBalance(bob, 250)

	if err := transfer(400, true); err != nil {
		panic(err)
	}
	fmt.Printf("aborted:   alice=%d bob=%d\n", balance(alice), balance(bob))
	if err := transfer(400, false); err != nil {
		panic(err)
	}
	fmt.Printf("committed: alice=%d bob=%d\n", balance(alice), balance(bob))

	// Hammer other pages inside a transaction, let the cleaner run,
	// then roll back.
	if err := dev.Begin(); err != nil {
		panic(err)
	}
	setBalance(alice, -1)
	for i := 0; i < 20_000; i++ {
		dev.WriteWord(uint64(16384+(i%2048)*4), uint32(i))
	}
	dev.Idle(500 * time.Millisecond)
	if err := dev.Rollback(); err != nil {
		panic(err)
	}
	fmt.Printf("rolled back under cleaning: alice=%d\n", balance(alice))
	fmt.Println("consistent:", dev.CheckConsistency() == nil)
	// Output:
	// aborted:   alice=1000 bob=250
	// committed: alice=600 bob=650
	// rolled back under cleaning: alice=600
	// consistent: true
}

// Flash wears out, and §4.3's even-wearing rule keeps a skewed workload
// from burning out the segments that hold hot data. 98% of 500k writes
// go to 5% of a small array, with and without the rule; the array's
// lifetime is set by its most-worn segment. The paper's threshold is
// 100 cycles over a ten-year horizon; this run lasts seconds of
// simulated time, so a 20-cycle threshold shows the same mechanism.
func Example_wearLeveling() {
	run := func(wearThreshold int64) envy.Stats {
		dev, err := envy.New(envy.Config{
			PageSize:          256,
			PagesPerSegment:   128,
			Segments:          32,
			Banks:             8,
			Policy:            envy.HybridPolicy,
			PartitionSegments: 4,
			WearThreshold:     wearThreshold,
			BufferPages:       128,
		})
		if err != nil {
			panic(err)
		}
		pages := uint64(dev.Size()) / 256
		zero := make([]byte, 256)
		for p := uint64(0); p < pages; p++ {
			if err := dev.Preload(zero, p*256); err != nil {
				panic(err)
			}
		}
		dev.ResetStats()

		// More hot pages than buffer frames, so the traffic reaches Flash.
		hot := pages / 20
		rng := uint64(42)
		next := func() uint64 { // xorshift
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for i := 0; i < 500_000; i++ {
			var page uint64
			if next()%100 < 98 {
				page = next() % hot
			} else {
				page = next() % pages
			}
			dev.WriteWord(page*256, uint32(i))
			if i%16 == 0 {
				dev.Idle(time.Millisecond) // let flushing keep up
			}
		}
		dev.Idle(2 * time.Second)
		if err := dev.CheckConsistency(); err != nil {
			panic(err)
		}
		return dev.Stats()
	}
	for _, threshold := range []int64{0, 20} {
		s := run(threshold)
		fmt.Printf("threshold %2d: erases per segment %d..%d, %d wear swaps\n",
			threshold, s.WearMin, s.WearMax, s.WearSwaps)
	}
	// Output:
	// threshold  0: erases per segment 35..143, 0 wear swaps
	// threshold 20: erases per segment 96..119, 146 wear swaps
}
