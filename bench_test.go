// Package ebslab's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (see DESIGN.md's per-experiment index) and run
// the ablations it motivates. Each benchmark executes one experiment per
// iteration on a shared small fleet and publishes its headline statistic
// via b.ReportMetric, so `go test -bench . -benchmem` doubles as the
// reproduction harness.
package ebslab

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/core"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/hypervisor"
	"ebslab/internal/netblock"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	benchErr   error
)

func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.DCs = 2
		cfg.NodesPerDC = 40
		cfg.BSPerDC = 12
		cfg.BSPerCluster = 6
		cfg.Users = 60
		cfg.DurationSec = 240
		benchStudy, benchErr = core.NewStudy(cfg)
	})
	if benchErr != nil {
		b.Fatalf("NewStudy: %v", benchErr)
	}
	return benchStudy
}

func BenchmarkTable2(b *testing.B) {
	s := study(b)
	var r core.Table2Result
	for i := 0; i < b.N; i++ {
		r = s.Table2Summary()
	}
	b.ReportMetric(float64(r.VDs), "vds")
}

func BenchmarkTable3(b *testing.B) {
	s := study(b)
	var r core.Table3Result
	for i := 0; i < b.N; i++ {
		r = s.Table3Baseline()
	}
	b.ReportMetric(r.DCs[0].Levels[1].P2AMedR, "vm-read-p2a")
	b.ReportMetric(r.DCs[0].Levels[1].CCR1Read, "vm-read-ccr1-pct")
}

func BenchmarkTable4(b *testing.B) {
	s := study(b)
	var r core.Table4Result
	for i := 0; i < b.N; i++ {
		r = s.Table4ByApp()
	}
	b.ReportMetric(float64(len(r.Rows)), "app-classes")
}

func BenchmarkFig2a(b *testing.B) {
	s := study(b)
	var r core.Fig2aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2aWTCoV([]int{30, 120})
	}
	b.ReportMetric(r.MedianRead[0], "wt-cov-read")
	b.ReportMetric(r.MedianWrite[0], "wt-cov-write")
}

func BenchmarkFig2b(b *testing.B) {
	s := study(b)
	var r core.Fig2bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2bThreeTier()
	}
	b.ReportMetric(r.VM2VDRead, "vm2vd-cov-read")
	b.ReportMetric(r.TypeIIIPct, "type3-pct")
}

func BenchmarkFig2c(b *testing.B) {
	s := study(b)
	var r core.Fig2cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2cHottestQP()
	}
	b.ReportMetric(100*r.FracAbove80Read, "nodes-above80-read-pct")
}

func BenchmarkFig2d(b *testing.B) {
	s := study(b)
	var r core.Fig2dResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2dRebinding(core.Fig2dOptions{MaxNodes: 24, WinSec: 10})
	}
	b.ReportMetric(100*r.FracImproved, "improved-pct")
	b.ReportMetric(r.MedianGain, "median-gain")
}

func BenchmarkFig2ef(b *testing.B) {
	s := study(b)
	var r core.Fig2efResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2efBurstSeries(core.Fig2efOptions{MaxNodes: 16, WinSec: 10})
	}
	b.ReportMetric(r.BurstyP2A, "bursty-p2a")
	b.ReportMetric(r.CalmP2A, "calm-p2a")
}

func BenchmarkFig3a(b *testing.B) {
	s := study(b)
	var r core.Fig3aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3aSingleVDCase()
	}
	b.ReportMetric(100*r.PeakRAR, "peak-rar-pct")
}

func BenchmarkFig3b(b *testing.B) {
	s := study(b)
	var r core.Fig3bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3bRAR(false)
	}
	b.ReportMetric(100*r.MedianRARTput, "median-rar-pct")
	b.ReportMetric(r.TputOverIOPS, "tput-over-iops")
}

func BenchmarkFig3c(b *testing.B) {
	s := study(b)
	var r core.Fig3bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3bRAR(true)
	}
	b.ReportMetric(100*r.WriteDriven, "write-driven-pct")
}

func BenchmarkFig3de(b *testing.B) {
	s := study(b)
	var r core.Fig3deResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3deReduction(core.Fig3deOptions{})
	}
	b.ReportMetric(100*r.MedianRRTput[len(r.MedianRRTput)-1], "rr-tput-p08-pct")
}

func BenchmarkFig3fg(b *testing.B) {
	s := study(b)
	for _, p := range []float64{0.2, 0.4, 0.6, 0.8} {
		p := p
		b.Run(rateName(p), func(b *testing.B) {
			var r core.Fig3fgResult
			for i := 0; i < b.N; i++ {
				r = s.Fig3fgLendingGain(core.Fig3fgOptions{Rates: []float64{p}, PeriodSec: 60})
			}
			b.ReportMetric(100*r.PosFrac[0], "positive-pct")
		})
	}
}

func rateName(p float64) string {
	switch p {
	case 0.2:
		return "p02"
	case 0.4:
		return "p04"
	case 0.6:
		return "p06"
	}
	return "p08"
}

func BenchmarkFig4a(b *testing.B) {
	s := study(b)
	var r core.Fig4aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4aFrequentMigration(core.Fig4aOptions{PeriodSec: 5})
	}
	b.ReportMetric(100*r.MaxProp[0], "max-freq-pct")
}

func BenchmarkFig4b(b *testing.B) {
	s := study(b)
	var r core.Fig4bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4bImporterSelection(core.Fig4bOptions{PeriodSec: 5})
	}
	b.ReportMetric(r.MedianInterval[len(r.MedianInterval)-1], "ideal-interval")
}

func BenchmarkFig4c(b *testing.B) {
	s := study(b)
	var r core.Fig4cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4cPredictionMSE(core.Fig4cOptions{PeriodSec: 5, EpochLen: 20})
	}
	b.ReportMetric(r.MeanNormMSE[1], "arima-nmse")
	b.ReportMetric(r.MeanNormMSE[4], "attn-period-nmse")
}

func BenchmarkFig5a(b *testing.B) {
	s := study(b)
	var r core.Fig5aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5aReadWriteCoV(core.Fig5aOptions{PeriodSec: 5})
	}
	b.ReportMetric(100*r.FracAboveDiagonal, "above-diag-pct")
}

func BenchmarkFig5b(b *testing.B) {
	s := study(b)
	var r core.Fig5bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5bSegmentDominance(core.Fig5bOptions{PeriodSec: 5})
	}
	b.ReportMetric(100*r.FracAbove09, "one-sided-clusters-pct")
}

func BenchmarkFig5c(b *testing.B) {
	s := study(b)
	var r core.Fig5cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5cWriteThenRead(core.Fig5cOptions{PeriodSec: 5})
	}
	b.ReportMetric(r.WTRReadCoV, "wtr-read-cov")
	b.ReportMetric(r.WriteOnlyReadCoV, "wo-read-cov")
}

func BenchmarkFig6a(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MedianAccessRate[0], "access-rate-64mib-pct"
	})
}

func BenchmarkFig6b(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MedianBlockShare[0], "block-share-64mib-pct"
	})
}

func BenchmarkFig6c(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.WriteDomFrac[0], "write-dom-64mib-pct"
	})
}

func BenchmarkFig6d(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MeanHotRate[0], "hot-rate-64mib-pct"
	})
}

func benchFig6(b *testing.B, metric func(core.Fig6Result) (float64, string)) {
	s := study(b)
	var r core.Fig6Result
	for i := 0; i < b.N; i++ {
		r = s.Fig6HottestBlocks(core.Fig6Options{MaxVDs: 16, MaxEventsPerVD: 4000})
	}
	v, name := metric(r)
	b.ReportMetric(v, name)
}

func BenchmarkFig7a(b *testing.B) {
	s := study(b)
	var r core.Fig7aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7aHitRatio(core.Fig7aOptions{MaxVDs: 12, MaxEventsPerVD: 4000})
	}
	b.ReportMetric(100*r.LRUMed[0], "lru-64mib-pct")
	b.ReportMetric(100*r.FCMed[len(r.FCMed)-1], "fc-2048mib-pct")
}

func BenchmarkFig7bc(b *testing.B) {
	s := study(b)
	var r core.Fig7bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7bcLatencyGain(core.Fig7bcOptions{MaxVDs: 12, MaxEventsPerVD: 4000, BlockMiB: 2048})
	}
	b.ReportMetric(100*r.CNWrite[0], "cn-write-p0-pct")
	b.ReportMetric(100*r.BSWrite[0], "bs-write-p0-pct")
}

func BenchmarkFig7d(b *testing.B) {
	s := study(b)
	var r core.Fig7dResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7dSpaceUtilization(core.Fig7dOptions{Threshold: 0.25})
	}
	b.ReportMetric(r.CNSpread[0], "cn-spread")
	b.ReportMetric(r.BSSpread[0], "bs-spread")
}

// --- Ablations called out in DESIGN.md ---

// BenchmarkAblationRebindPeriod sweeps the rebinding period (in 10 ms
// slots): the paper argues shorter periods are needed than NVMe
// virtualization can afford.
func BenchmarkAblationRebindPeriod(b *testing.B) {
	s := study(b)
	for _, period := range []int{1, 5, 10, 50} {
		period := period
		b.Run(periodName(period), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				nodes := 0
				improved := 0
				cfg := hypervisor.RebindConfig{PeriodSlots: period, Trigger: 1.2, EvalSlots: 100}
				r := s.RebindWithConfig(core.RebindOptions{MaxNodes: 16, WinSec: 10, Config: cfg})
				for _, p := range r.Points {
					nodes++
					if p.Gain < 0.999 {
						improved++
					}
				}
				if nodes > 0 {
					frac = float64(improved) / float64(nodes)
				}
			}
			b.ReportMetric(100*frac, "improved-pct")
		})
	}
}

func periodName(p int) string {
	switch p {
	case 1:
		return "10ms"
	case 5:
		return "50ms"
	case 10:
		return "100ms"
	}
	return "500ms"
}

// BenchmarkAblationDispatch compares single-WT hosting against the per-IO
// dispatch models of §4.4.
func BenchmarkAblationDispatch(b *testing.B) {
	s := study(b)
	for _, policy := range []hypervisor.DispatchPolicy{
		hypervisor.DispatchSingleWT, hypervisor.DispatchLeastLoaded, hypervisor.DispatchRoundRobinIO,
	} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var r core.DispatchAblation
			for i := 0; i < b.N; i++ {
				r = s.AblateDispatch(core.DispatchOptions{MaxNodes: 16, WinSec: 10, Policy: policy})
			}
			b.ReportMetric(r.MedianCoV, "median-wt-cov")
			b.ReportMetric(float64(r.SyncOps), "sync-ops")
		})
	}
}

// BenchmarkAblationImporter runs the full importer-policy sweep (the
// Fig 4(b) study) as one benchmark per policy.
func BenchmarkAblationImporter(b *testing.B) {
	s := study(b)
	r := s.Fig4bImporterSelection(core.Fig4bOptions{PeriodSec: 5})
	for i, name := range r.Policies {
		i := i
		b.Run(name, func(b *testing.B) {
			var v float64
			for j := 0; j < b.N; j++ {
				rr := s.Fig4bImporterSelection(core.Fig4bOptions{PeriodSec: 5})
				v = rr.MedianInterval[i]
			}
			b.ReportMetric(v, "median-interval")
		})
	}
}

// BenchmarkAblationHosting compares the §4.4 hosting models on sampled IO.
func BenchmarkAblationHosting(b *testing.B) {
	s := study(b)
	var r core.HostingAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateHosting(core.HostingOptions{MaxNodes: 12, WinSec: 6})
	}
	for mode, iso := range r.MedianIsolation {
		b.ReportMetric(iso, mode.String()+"-isolation")
	}
}

// BenchmarkAblationCachePolicy adds CLOCK to the Fig 7(a) comparison.
func BenchmarkAblationCachePolicy(b *testing.B) {
	s := study(b)
	var r core.CachePolicyAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateCachePolicy(core.CachePolicyOptions{MaxVDs: 10, MaxEventsPerVD: 4000, BlockMiB: 256})
	}
	for _, name := range []string{"fifo", "clock", "lru", "frozen"} {
		b.ReportMetric(100*r.Median[name], name+"-hit-pct")
	}
}

// BenchmarkAblationPredictors runs the full forecaster roster.
func BenchmarkAblationPredictors(b *testing.B) {
	s := study(b)
	var r core.PredictorAblation
	for i := 0; i < b.N; i++ {
		r = s.AblatePredictors(core.PredictorOptions{PeriodSec: 10})
	}
	for i, m := range r.Methods {
		b.ReportMetric(r.Median[i], m+"-nmse")
	}
}

// BenchmarkAblationFailover measures BS-failure recovery quality.
func BenchmarkAblationFailover(b *testing.B) {
	s := study(b)
	var r core.FailoverAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateFailover(core.FailoverOptions{PeriodSec: 10})
	}
	b.ReportMetric(r.Greedy.MaxOverload, "greedy-overload")
	b.ReportMetric(r.Random.MaxOverload, "random-overload")
}

// BenchmarkEndToEnd measures the full stack simulation throughput
// (simulated IOs per wall second).
func BenchmarkEndToEnd(b *testing.B) {
	s := study(b)
	sim := ebs.New(s.Fleet)
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := sim.Run(context.Background(), ebs.Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 16, MaxVDs: 40})
		if err != nil {
			b.Fatal(err)
		}
		total += len(ds.Trace)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ios-per-sec")
}

// BenchmarkSimWorkers measures the sharded engine's scaling: the same
// simulation at 1, 2, and 4 workers. Output is identical across
// sub-benchmarks; only the wall-clock time should drop with parallelism
// (expect roughly linear gains on idle multicore hardware).
func BenchmarkSimWorkers(b *testing.B) {
	s := study(b)
	sim := ebs.New(s.Fleet)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				ds, err := sim.Run(context.Background(), ebs.Options{
					DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 16,
					MaxVDs: 40, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				total = len(ds.Trace)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds()*float64(b.N), "ios-per-sec")
		})
	}
}

// synthSketchRecords builds a deterministic synthetic record stream for the
// sketch ingest benchmark: 32 disks with a heavy-tailed size mix spread over
// a 64-second window.
func synthSketchRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range recs {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		vd := z % 32
		recs[i] = trace.Record{
			VD:      cluster.VDID(vd),
			Op:      trace.Op(z >> 8 & 1),
			Size:    int32(4096 << (z >> 16 % 5)),
			Offset:  int64(z>>24%4096) * 4096,
			Segment: cluster.SegmentID(vd*8 + z>>40%8),
			TimeUS:  int64(z>>48%64) * 1_000_000,
		}
		recs[i].Latency[trace.StageComputeNode] = float32(50 + z%400)
	}
	return recs
}

// BenchmarkSketchIngest measures the streaming path in isolation: one
// sketch.Set ingesting a synthetic record stream. With -benchmem, the B/op
// column is the whole per-iteration footprint (the set is rebuilt each
// iteration), so it must stay flat as records grow 8x — sketch state is
// fleet-bounded, not trace-bounded.
func BenchmarkSketchIngest(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		n := n
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			recs := synthSketchRecords(n)
			b.ReportAllocs()
			b.ResetTimer()
			var ios uint64
			for i := 0; i < b.N; i++ {
				set := sketch.NewSet(sketch.Config{DurationSec: 64})
				for j := range recs {
					set.Observe(&recs[j])
				}
				ios = set.Totals().IOs
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "ios-per-sec")
			if ios != uint64(n) {
				b.Fatalf("ingested %d records, want %d", ios, n)
			}
		})
	}
}

// synthReplayCSV renders a deterministic tianchi-schema trace (dev, op,
// offset, length, timestamp-µs) for the replay ingest benchmark: 64 devices,
// heavy-tailed sizes, timestamps ticking forward 37µs per row.
func synthReplayCSV(n int) []byte {
	var buf bytes.Buffer
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		op := "R"
		if z>>8&3 == 0 {
			op = "W"
		}
		fmt.Fprintf(&buf, "%d,%s,%d,%d,%d\n",
			z%64, op, (z>>16%4096)*4096, 512*(1+z>>32%64), 1_000_000+uint64(i)*37)
	}
	return buf.Bytes()
}

// BenchmarkReplayIngest measures the foreign-trace replay ingester in
// isolation: decoding a tianchi-schema stream, normalising every record onto
// the fleet's address space, and bucketing it per VD. The ios-per-sec metric
// is the headline ingest rate the bench gate watches; B/op must scale with
// the kept records, never with fleet size.
func BenchmarkReplayIngest(b *testing.B) {
	s := study(b)
	for _, n := range []int{8192, 65536} {
		n := n
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			input := synthReplayCSV(n)
			b.ReportAllocs()
			b.ResetTimer()
			var kept int
			for i := 0; i < b.N; i++ {
				cfg := scenario.ReplayConfig{Path: "bench.csv", Schema: scenario.SchemaTianchi, SampleEvery: 1, TimeScale: 1}
				rp, err := cfg.Ingest(bytes.NewReader(input), s.Fleet)
				if err != nil {
					b.Fatal(err)
				}
				kept = rp.Stats().Kept
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "ios-per-sec")
			if kept != n {
				b.Fatalf("kept %d records, want %d", kept, n)
			}
		})
	}
}

// BenchmarkFabricDispatch measures the distributed fabric end to end: each
// iteration stands up a coordinator and two loopback workers, runs the full
// join/dispatch/upload/merge cycle, and tears it down. The wire path — the
// netblock codec and the binary shard-result frames — is the real one; only
// the sockets are in-process pipes, so the number is dispatch overhead, not
// kernel networking.
func BenchmarkFabricDispatch(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.DCs = 1
	cfg.NodesPerDC = 6
	cfg.BSPerDC = 3
	cfg.BSPerCluster = 3
	cfg.Users = 8
	cfg.DurationSec = 10
	var ios int
	for i := 0; i < b.N; i++ {
		co, err := fabric.NewCoordinator(fabric.Config{
			Fleet:  cfg,
			Opts:   ebs.Options{DurationSec: 6, TraceSampleEvery: 2, EventSampleEvery: 4, MaxVDs: 16, Workers: 1},
			Shards: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		lb := fabric.NewLoopback()
		srv := netblock.NewHandlerServer(co)
		go srv.Serve(lb) //nolint:errcheck — lifecycle ends with Close
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fabric.RunWorker(context.Background(), fabric.WorkerConfig{Dials: []func() (net.Conn, error){lb.Dial}}); err != nil {
					b.Error(err)
				}
			}()
		}
		ds, err := co.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		wg.Wait()
		srv.Close()
		lb.Close()
		ios += len(ds.Trace)
	}
	b.ReportMetric(float64(ios)/b.Elapsed().Seconds(), "ios-per-sec")
}

// BenchmarkSeriesGeneration measures the raw traffic generator.
func BenchmarkSeriesGeneration(b *testing.B) {
	s := study(b)
	var sink float64
	for i := 0; i < b.N; i++ {
		series := s.Fleet.VDSeries(0, 300)
		sink += series[0].ReadBps
	}
	_ = sink
	b.ReportMetric(stats.Mean([]float64{300}), "seconds-per-series")
}

// BenchmarkControlOverhead prices the predict->act mitigation loop against
// the identical study uncontrolled. The "noop" case is the control plane's
// fixed cost — a traffic-only observe pass (event generation and counting,
// no latency sampling or tracing) plus planning over an empty action set —
// and "reactive" adds real actuation (migration lookups, lending overrides)
// to the bill. The gate watches ios-per-sec on all three.
func BenchmarkControlOverhead(b *testing.B) {
	s := study(b)
	sim := ebs.New(s.Fleet)
	opts := ebs.Options{
		DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 16,
		MaxVDs: 40, Workers: 2,
	}
	b.Run("uncontrolled", func(b *testing.B) {
		b.ReportAllocs()
		var ios int
		for i := 0; i < b.N; i++ {
			ds, err := sim.Run(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			ios += len(ds.Trace)
		}
		b.ReportMetric(float64(ios)/b.Elapsed().Seconds(), "ios-per-sec")
	})
	for _, name := range []string{"noop", "reactive"} {
		name := name
		b.Run("policy="+name, func(b *testing.B) {
			b.ReportAllocs()
			pol, err := control.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var ios int
			for i := 0; i < b.N; i++ {
				ds, _, err := sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2})
				if err != nil {
					b.Fatal(err)
				}
				ios += len(ds.Trace)
			}
			b.ReportMetric(float64(ios)/b.Elapsed().Seconds(), "ios-per-sec")
		})
	}
}
