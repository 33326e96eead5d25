// Benchmarks regenerating every table and figure of the eNVy paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced "bench" scale and reports the headline quantity as a custom
// metric (cleaning_cost, tps, read_ns, ...), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation in one pass. cmd/experiments prints
// the same experiments as full tables, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package envy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"envy"
	"envy/internal/cleaner"
	"envy/internal/experiments"
	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/tpca"
)

// reportAll emits one experiment's metric map — the same maps
// cmd/experiments -json writes to BENCH_results.json — as custom
// benchmark metrics, in sorted order for stable output.
func reportAll(b *testing.B, metrics map[string]float64) {
	b.Helper()
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(metrics[k], k)
	}
}

// TestBenchEncoder round-trips the BENCH_results.json encoder the
// benchmarks and cmd/experiments share.
func TestBenchEncoder(t *testing.T) {
	records := []experiments.BenchRecord{
		{
			Name:  "parallel",
			Scale: "bench",
			Seed:  1,
			Metrics: experiments.ParallelMetrics([]experiments.ParallelPoint{
				{ParallelFlush: 4, MeanFlushTime: 1025, TPS: 9000, WriteMean: 310},
			}),
			WallSeconds: 0.5,
		},
	}
	var buf bytes.Buffer
	if err := experiments.WriteBenchJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	var back []experiments.BenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding written JSON: %v", err)
	}
	if len(back) != 1 || back[0].Name != "parallel" || back[0].Metrics["banks4_flush_ns"] != 1025 {
		t.Fatalf("round trip mangled records: %+v", back)
	}
}

// benchScale trims the small profile so individual benchmark
// iterations stay around a second of wall time.
func benchScale() experiments.Scale {
	sc := experiments.Small()
	sc.Warm, sc.Measure = 20, 10
	sc.Rates = []float64{2000, 8000, 1e5}
	sc.SimTime = 150 * sim.Millisecond
	sc.WarmTime = 100 * sim.Millisecond
	return sc
}

// BenchmarkFig6 measures cleaning cost against the u/(1-u) curve at
// two utilizations (Figure 6).
func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for _, u := range []float64{0.5, 0.8} {
		b.Run(fmt.Sprintf("util=%.1f", u), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(sc.PolicyGeometry, cleaner.Config{
					Kind:              cleaner.Hybrid,
					PartitionSegments: 1,
					LogicalPages:      int(u * float64(sc.PolicyGeometry.Pages())),
				})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), sim.Uniform, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
			b.ReportMetric(u/(1-u), "analytic_cost")
		})
	}
}

// BenchmarkFig8 measures the three cleaning policies at the ends of
// the locality axis (Figure 8).
func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	policies := []struct {
		name string
		cfg  cleaner.Config
	}{
		{"greedy", cleaner.Config{Kind: cleaner.Greedy}},
		{"locgather", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 1}},
		{"hybrid16", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16}},
		{"fifo", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: sc.PolicyGeometry.Segments - 1}},
	}
	for _, pol := range policies {
		for _, loc := range []string{"50/50", "10/90"} {
			b.Run(pol.name+"/"+loc, func(b *testing.B) {
				dist, err := sim.ParseLocality(loc)
				if err != nil {
					b.Fatal(err)
				}
				var cost float64
				for i := 0; i < b.N; i++ {
					h, err := cleaner.NewHarness(sc.PolicyGeometry, pol.cfg)
					if err != nil {
						b.Fatal(err)
					}
					h.Load()
					n := h.LogicalPages()
					cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
				}
				b.ReportMetric(cost, "cleaning_cost")
			})
		}
	}
}

// BenchmarkFig9 sweeps the hybrid partition size (Figure 9).
func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	dist, _ := sim.ParseLocality("10/90")
	for _, k := range []int{1, 4, 16, 64, sc.PolicyGeometry.Segments - 1} {
		b.Run(fmt.Sprintf("partition=%d", k), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(sc.PolicyGeometry, cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: k})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
		})
	}
}

// BenchmarkFig10 sweeps the number of segments at fixed array size
// (Figure 10).
func BenchmarkFig10(b *testing.B) {
	sc := benchScale()
	dist, _ := sim.ParseLocality("10/90")
	totalPages := sc.PolicyGeometry.Pages()
	for _, segs := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			geo := sc.PolicyGeometry
			geo.PagesPerSegment = totalPages / segs
			geo.Segments = segs + 1
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(geo, cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: (segs + 7) / 8})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
		})
	}
}

// benchRate runs one TPC-A point and reports throughput and latency
// metrics.
func benchRate(b *testing.B, sc experiments.Scale, rate float64) {
	b.Helper()
	var pts []experiments.RatePoint
	for i := 0; i < b.N; i++ {
		one := sc
		one.Rates = []float64{rate}
		var err error
		pts, err = experiments.RateSweep(one)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.RateMetrics(pts))
}

// BenchmarkFig13 drives TPC-A below and beyond saturation (Figure 13:
// throughput; the same points carry Figure 15's latencies).
func BenchmarkFig13(b *testing.B) {
	sc := benchScale()
	for _, rate := range sc.Rates {
		b.Run(fmt.Sprintf("offered=%.0f", rate), func(b *testing.B) {
			benchRate(b, sc, rate)
		})
	}
}

// BenchmarkFig15 reports the flat-latency region and the saturated
// region explicitly (Figure 15).
func BenchmarkFig15(b *testing.B) {
	sc := benchScale()
	b.Run("below-saturation", func(b *testing.B) { benchRate(b, sc, sc.Rates[0]) })
	b.Run("beyond-saturation", func(b *testing.B) { benchRate(b, sc, sc.Rates[len(sc.Rates)-1]) })
}

// BenchmarkFig14 varies Flash utilization at a fixed database size
// (Figure 14).
func BenchmarkFig14(b *testing.B) {
	sc := benchScale()
	sc.Rates = []float64{8000}
	var pts []experiments.UtilPoint
	var labels []string
	for i := 0; i < b.N; i++ {
		var err error
		pts, labels, err = experiments.Fig14(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.TPS[labels[len(labels)-1]], fmt.Sprintf("tps_at_u%.2f", p.Utilization))
	}
}

// BenchmarkBreakdown measures the §5.3 controller-time split at
// saturation.
func BenchmarkBreakdown(b *testing.B) {
	sc := benchScale()
	var r experiments.BreakdownResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Breakdown(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.BreakdownMetrics(r))
}

// BenchmarkLifetime measures the §5.5 estimate from a live run.
func BenchmarkLifetime(b *testing.B) {
	sc := benchScale()
	var r experiments.LifetimeResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Lifetime(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.LifetimeMetrics(r))
}

// BenchmarkParallelFlush measures the §6 concurrent-bank extension.
func BenchmarkParallelFlush(b *testing.B) {
	sc := benchScale()
	for _, par := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("banks=%d", par), func(b *testing.B) {
			one := sc
			var pts []experiments.ParallelPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = experiments.ParallelOne(one, par)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportAll(b, experiments.ParallelMetrics(pts))
		})
	}
}

// BenchmarkAblationRedistribution measures the locality-gathering
// redistribution ablation.
func BenchmarkAblationRedistribution(b *testing.B) {
	sc := benchScale()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PolicyAblations(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.AblationMetrics(rows))
}

// BenchmarkMapTier measures the two-tier page table's capacity
// experiment at a reduced profile: hit rate, tiered-vs-flat read
// latency, extra write amplification, and the SRAM ratio. The
// full-scale (≥1M logical page) sweep runs through cmd/experiments.
func BenchmarkMapTier(b *testing.B) {
	p := experiments.MapTierProfile{
		Geometry:     flash.Geometry{PageSize: 256, PagesPerSegment: 1024, Segments: 80, Banks: 8},
		LogicalPages: 65536,
		WorkingPages: 16384,
		CacheFrames:  96,
		SegmentPages: 128,
		BufferPages:  512,
		Writes:       20_000,
		Reads:        8_000,
		MMUEntries:   -1,
		Seed:         1,
	}
	var res experiments.MapTierResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.MapTierRun(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.MapTierMetrics(res))
}

// BenchmarkDeviceAccess measures the raw Go-level speed of simulated
// host accesses (not a paper figure; engineering health).
func BenchmarkDeviceAccess(b *testing.B) {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	pages := uint64(dev.Size()) / 256
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev.WriteWord(uint64(i)%pages*256, uint32(i))
			if i%256 == 0 {
				dev.Idle(1e6)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev.ReadWord(uint64(i) % pages * 256)
		}
	})
}

// BenchmarkTransactions measures §6 transaction overhead per
// committed page.
func BenchmarkTransactions(b *testing.B) {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := dev.Begin(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			dev.WriteWord(uint64(j)*256, uint32(i))
		}
		if i%2 == 0 {
			dev.Commit()
		} else {
			dev.Rollback()
		}
		if i%128 == 0 {
			dev.Idle(1e6)
		}
	}
}

// The three benchmarks below are the host-cost micro view of the
// repository benchmark's workloads (bench/): wall time and allocations
// per simulated operation, not a paper figure.

// agedDevice builds a device with every logical page preloaded and
// aged by untimed random rewrites, so cleaning is active from the first
// measured write. It returns the device and its logical page count.
func agedDevice(b *testing.B, cfg envy.Config) (*envy.Device, int) {
	b.Helper()
	dev, err := envy.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.Preload(make([]byte, dev.Size()), 0); err != nil {
		b.Fatal(err)
	}
	dev.Core().Churn(30_000, 1)
	return dev, int(dev.Size()) / cfg.PageSize
}

// BenchmarkPageWrite256 is flood_hotcold's op: a closed loop of
// 256-byte page writes with 10/90 locality on an aged device — the
// span kernel's closed-form run plus the flush, cleaning and wear
// control plane behind it.
func BenchmarkPageWrite256(b *testing.B) {
	cfg := envy.SmallConfig()
	dev, pages := agedDevice(b, cfg)
	rng := sim.NewRNG(1)
	dist := sim.Bimodal{HotData: 0.1, HotAccess: 0.9}
	page := make([]byte, cfg.PageSize)
	write := func() { dev.Write(page, uint64(dist.Draw(rng, pages))*uint64(cfg.PageSize)) }
	for i := 0; i < 4*cfg.BufferPages; i++ {
		write() // fill the buffer: measure with flushing engaged
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// BenchmarkTPCATransaction is tpca_sat's op: TPC-A transactions back
// to back on the small-scale system — three B-tree descents of 2-word
// reads, three record updates.
func BenchmarkTPCATransaction(b *testing.B) {
	dev, err := envy.New(envy.Config{
		PageSize: 256, PagesPerSegment: 128, Segments: 128, Banks: 8,
		Policy: envy.HybridPolicy, PartitionSegments: 16, WearThreshold: 100,
		BufferPages: 2048,
	})
	if err != nil {
		b.Fatal(err)
	}
	bank, err := tpca.Setup(dev.Core(), tpca.Config{Branches: 2, AccountsPerTeller: 500, InitialBalance: 1000})
	if err != nil {
		b.Fatal(err)
	}
	dev.Core().Churn(40_000, 1)
	rng := sim.NewRNG(1)
	txn := func() {
		if err := bank.Transaction(rng.Intn(bank.Accounts())+1, int64(rng.Intn(1999))-999); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		txn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn()
	}
}

// BenchmarkFlushPlacementPar8 isolates the §6 placement control plane
// the cluster members run: 8-byte writes at host depth 8 with
// ParallelFlush 8 and the buffer held above its high-water mark, so
// every few writes expand a flush through selectFlushFrame,
// bankOccupied and the wear check. The sub-benchmarks scale the write
// buffer: the pick reads one candidate-list head per home partition,
// so its cost must not grow with the number of buffered frames.
func BenchmarkFlushPlacementPar8(b *testing.B) {
	for _, frames := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("buffer%d", frames), func(b *testing.B) {
			cfg := envy.SmallConfig()
			cfg.ParallelFlush, cfg.HostQueueDepth = 8, 8
			cfg.BufferPages = frames
			dev, pages := agedDevice(b, cfg)
			rng := sim.NewRNG(1)
			word := make([]byte, 8)
			write := func(i int) {
				dev.Write(word, uint64(rng.Intn(pages))*uint64(cfg.PageSize))
				if i%8 == 7 {
					dev.Idle(20 * time.Microsecond)
				}
			}
			for i := 0; i < 4*cfg.BufferPages; i++ {
				write(i)
			}
			dev.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(dev.Stats().Flushes)/float64(b.N), "flushes/op")
		})
	}
}
