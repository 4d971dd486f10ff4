package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// smallConfig is a fast fleet for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NodesPerDC = 12
	cfg.BSPerDC = 4
	cfg.BSPerCluster = 4
	cfg.Users = 20
	cfg.DurationSec = 60
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.DCs = 0 },
		func(c *Config) { c.NodesPerDC = -1 },
		func(c *Config) { c.BSPerDC = 1 },
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.DurationSec = 0 },
		func(c *Config) { c.BareMetalFrac = 1.5 },
		func(c *Config) { c.MaxVMsPerNode = 0 },
		func(c *Config) { c.MeanVDsPerVM = 0.5 },
		func(c *Config) { c.MultiQPFrac = -0.1 },
		func(c *Config) { c.TenantZipfS = 1 },
		func(c *Config) { c.RateLogSigma = 0 },
		func(c *Config) { c.CapacityTiers = nil },
		func(c *Config) { c.CapacityWeights = c.CapacityWeights[:1] },
		func(c *Config) { c.CapacityTiers = []int64{0, 1, 2, 3} },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid config", i)
		}
	}
}

func TestGenerateTopologyValid(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	if err := f.Topology.Validate(); err != nil {
		t.Fatalf("topology invalid: %v", err)
	}
	if got := len(f.Topology.Nodes); got != 36 {
		t.Fatalf("nodes = %d, want 36", got)
	}
	if len(f.Models) != len(f.Topology.VDs) {
		t.Fatalf("models = %d, VDs = %d", len(f.Models), len(f.Topology.VDs))
	}
	if f.Seg2BS.Len() != len(f.Topology.Segments) {
		t.Fatalf("segment map covers %d, want %d", f.Seg2BS.Len(), len(f.Topology.Segments))
	}
	for seg := 0; seg < f.Seg2BS.Len(); seg++ {
		if f.Seg2BS.BSOf(cluster.SegmentID(seg)) < 0 {
			t.Fatalf("segment %d unassigned", seg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	if len(a.Topology.VDs) != len(b.Topology.VDs) {
		t.Fatal("same seed produced different VD counts")
	}
	for i := range a.Models {
		if a.Models[i].MeanReadBps != b.Models[i].MeanReadBps ||
			a.Models[i].MeanWriteBps != b.Models[i].MeanWriteBps {
			t.Fatalf("model %d differs across identical generations", i)
		}
	}
	sa := a.VDSeries(0, 30)
	sb := b.VDSeries(0, 30)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("series sample %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

func TestGenerateSeedChangesFleet(t *testing.T) {
	cfg := smallConfig()
	a := mustGenerate(t, cfg)
	cfg.Seed = 99
	b := mustGenerate(t, cfg)
	if len(a.Topology.VDs) == len(b.Topology.VDs) {
		// Counts may coincide; compare a model rate as a stronger signal.
		if a.Models[0].MeanReadBps == b.Models[0].MeanReadBps {
			t.Fatal("different seeds produced identical fleets")
		}
	}
}

func TestModelWeightsNormalized(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	for i := range f.Models {
		m := &f.Models[i]
		for name, w := range map[string][]float64{
			"QPWeightsRead": m.QPWeightsRead, "QPWeightsWrite": m.QPWeightsWrite,
			"SegWeightsRead": m.SegWeightsRead, "SegWeightsWrite": m.SegWeightsWrite,
		} {
			sum := stats.Sum(w)
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("vd %d %s sums to %v", i, name, sum)
			}
			for _, x := range w {
				if x < 0 {
					t.Fatalf("vd %d %s has negative weight", i, name)
				}
			}
		}
		if m.MeanReadBps < 0 || m.MeanWriteBps < 0 {
			t.Fatalf("vd %d has negative mean rate", i)
		}
		if m.HotspotLen <= 0 || m.HotspotOffset < 0 {
			t.Fatalf("vd %d hotspot invalid: off=%d len=%d", i, m.HotspotOffset, m.HotspotLen)
		}
		if m.HotspotOffset+m.HotspotLen > f.Topology.VDs[i].Capacity {
			t.Fatalf("vd %d hotspot exceeds capacity", i)
		}
		if m.HotAccessFrac <= 0 || m.HotAccessFrac > 1 {
			t.Fatalf("vd %d HotAccessFrac = %v", i, m.HotAccessFrac)
		}
	}
}

func TestCapsForCapacity(t *testing.T) {
	tput, iops := capsForCapacity(40 << 30)
	if tput <= 100e6 || iops <= 1800 {
		t.Fatalf("40GiB caps = %v/%v, too small", tput, iops)
	}
	bigT, bigI := capsForCapacity(4 << 40) // 4 TiB: both should hit ceilings
	if bigT != 350e6 || bigI != 50000 {
		t.Fatalf("4TiB caps = %v/%v, want ceilings", bigT, bigI)
	}
}

func TestVDSeriesShape(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	s := f.VDSeries(0, 120)
	if len(s) != 120 {
		t.Fatalf("series length %d, want 120", len(s))
	}
	for i, x := range s {
		if x.ReadBps < 0 || x.WriteBps < 0 || x.ReadIOPS < 0 || x.WriteIOPS < 0 {
			t.Fatalf("sample %d negative: %+v", i, x)
		}
		if math.IsNaN(x.ReadBps) || math.IsInf(x.ReadBps, 0) {
			t.Fatalf("sample %d not finite: %+v", i, x)
		}
	}
}

func TestQPSeriesSumsToVDSeries(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	// Find a multi-QP VD.
	var vd cluster.VDID = -1
	for i := range f.Topology.VDs {
		if len(f.Topology.VDs[i].QPs) > 1 {
			vd = cluster.VDID(i)
			break
		}
	}
	if vd < 0 {
		t.Skip("no multi-QP VD in small fleet")
	}
	const dur = 40
	vdSeries := f.VDSeries(vd, dur)
	sum := make([]Sample, dur)
	for _, qp := range f.Topology.VDs[vd].QPs {
		qs := f.QPSeries(qp, dur)
		for i := range qs {
			sum[i].ReadBps += qs[i].ReadBps
			sum[i].WriteBps += qs[i].WriteBps
		}
	}
	for i := range sum {
		if math.Abs(sum[i].ReadBps-vdSeries[i].ReadBps) > 1e-6*(1+vdSeries[i].ReadBps) {
			t.Fatalf("read sum at %d = %v, want %v", i, sum[i].ReadBps, vdSeries[i].ReadBps)
		}
		if math.Abs(sum[i].WriteBps-vdSeries[i].WriteBps) > 1e-6*(1+vdSeries[i].WriteBps) {
			t.Fatalf("write sum at %d = %v, want %v", i, sum[i].WriteBps, vdSeries[i].WriteBps)
		}
	}
}

func TestSplitQPSeriesMatchesQPSeries(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	vd := cluster.VDID(0)
	const dur = 20
	vdSeries := f.VDSeries(vd, dur)
	split := f.SplitQPSeries(vd, vdSeries)
	for i, qp := range f.Topology.VDs[vd].QPs {
		direct := f.QPSeries(qp, dur)
		for j := range direct {
			if direct[j] != split[i][j] {
				t.Fatalf("qp %d sample %d: split %+v vs direct %+v", qp, j, split[i][j], direct[j])
			}
		}
	}
}

func TestSegmentSeriesSumsToVDSeries(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	// Find a multi-segment VD.
	var vd cluster.VDID = -1
	for i := range f.Topology.VDs {
		if len(f.Topology.VDs[i].Segments) > 1 {
			vd = cluster.VDID(i)
			break
		}
	}
	if vd < 0 {
		t.Skip("no multi-segment VD")
	}
	const dur = 30
	vdSeries := f.VDSeries(vd, dur)
	sumR, sumW := make([]float64, dur), make([]float64, dur)
	for _, seg := range f.Topology.VDs[vd].Segments {
		ss := f.SegmentSeries(seg, dur)
		for i := range ss {
			sumR[i] += ss[i].ReadBps
			sumW[i] += ss[i].WriteBps
		}
	}
	for i := range vdSeries {
		if math.Abs(sumR[i]-vdSeries[i].ReadBps) > 1e-6*(1+vdSeries[i].ReadBps) {
			t.Fatalf("segment read sum at %d = %v, want %v", i, sumR[i], vdSeries[i].ReadBps)
		}
		if math.Abs(sumW[i]-vdSeries[i].WriteBps) > 1e-6*(1+vdSeries[i].WriteBps) {
			t.Fatalf("segment write sum at %d = %v, want %v", i, sumW[i], vdSeries[i].WriteBps)
		}
	}
}

func TestSegmentPeriodMatrixConsistent(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	const dur, period = 60, 15
	mat := f.SegmentPeriodMatrix(dur, period)
	if len(mat) != len(f.Topology.Segments) {
		t.Fatalf("matrix rows = %d, want %d", len(mat), len(f.Topology.Segments))
	}
	if len(mat[0]) != 4 {
		t.Fatalf("matrix cols = %d, want 4", len(mat[0]))
	}
	// Cross-check one segment against its direct series.
	seg := cluster.SegmentID(0)
	ss := f.SegmentSeries(seg, dur)
	var wantR float64
	for t2 := 0; t2 < period; t2++ {
		wantR += ss[t2].ReadBps
	}
	if math.Abs(mat[seg][0].R-wantR) > 1e-6*(1+wantR) {
		t.Fatalf("matrix[0][0].R = %v, want %v", mat[seg][0].R, wantR)
	}
}

func TestFineSlotsConserveMass(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	sec := Sample{ReadBps: 1e6, WriteBps: 2e6}
	r, w := f.FineSlots(0, 7, 100, sec)
	if len(r) != 100 || len(w) != 100 {
		t.Fatalf("slot counts = %d/%d", len(r), len(w))
	}
	if math.Abs(stats.Sum(r)-1e6) > 1 {
		t.Fatalf("read mass = %v, want 1e6", stats.Sum(r))
	}
	if math.Abs(stats.Sum(w)-2e6) > 1 {
		t.Fatalf("write mass = %v, want 2e6", stats.Sum(w))
	}
	// Reads should be more concentrated than writes on average.
	if stats.NormCoV(r) <= stats.NormCoV(w)*0.5 {
		t.Logf("read CoV %v, write CoV %v (stochastic, informational)", stats.NormCoV(r), stats.NormCoV(w))
	}
}

func TestGenEventsWellFormed(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	d := &f.Topology.VDs[0]
	var n int
	var lastTime int64 = -1
	f.GenEvents(0, 30, 1, func(ev Event) {
		n++
		if ev.Offset < 0 || ev.Offset+int64(ev.Size) > d.Capacity {
			t.Fatalf("event outside disk: off=%d size=%d cap=%d", ev.Offset, ev.Size, d.Capacity)
		}
		if ev.Offset%sectorSize != 0 || int64(ev.Size)%sectorSize != 0 {
			t.Fatalf("event not 4KiB aligned: off=%d size=%d", ev.Offset, ev.Size)
		}
		if ev.TimeUS < lastTime {
			t.Fatalf("events out of order: %d after %d", ev.TimeUS, lastTime)
		}
		lastTime = ev.TimeUS
		found := false
		for _, qp := range d.QPs {
			if ev.QP == qp {
				found = true
			}
		}
		if !found {
			t.Fatalf("event on foreign QP %d", ev.QP)
		}
	})
	if n == 0 {
		t.Fatal("no events generated for VD 0 over 30s")
	}
}

func TestGenEventsSamplingReducesCount(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	count := func(sampleEvery int) int {
		var n int
		f.GenEvents(0, 30, sampleEvery, func(Event) { n++ })
		return n
	}
	full, sampled := count(1), count(8)
	if full == 0 {
		t.Skip("VD 0 idle in this window")
	}
	if sampled >= full {
		t.Fatalf("sampled count %d not below full count %d", sampled, full)
	}
}

func TestDistributionHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// zipfWeights: normalized and decreasing.
	w := zipfWeights(10, 1.5)
	if math.Abs(stats.Sum(w)-1) > 1e-12 {
		t.Fatalf("zipf weights sum to %v", stats.Sum(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("zipf weights not decreasing")
		}
	}
	// dirichletLike: normalized, non-negative.
	d := dirichletLike(rng, 8, 0.2)
	if math.Abs(stats.Sum(d)-1) > 1e-9 {
		t.Fatalf("dirichlet weights sum to %v", stats.Sum(d))
	}
	// Small shape should be more skewed than large shape (on average).
	var covSmall, covBig float64
	for i := 0; i < 50; i++ {
		covSmall += stats.NormCoV(dirichletLike(rng, 8, 0.1))
		covBig += stats.NormCoV(dirichletLike(rng, 8, 10))
	}
	if covSmall <= covBig {
		t.Fatalf("shape 0.1 CoV %v not above shape 10 CoV %v", covSmall/50, covBig/50)
	}
	// pareto respects the scale floor.
	for i := 0; i < 1000; i++ {
		if v := pareto(rng, 2, 1.5); v < 2 {
			t.Fatalf("pareto draw %v below xm", v)
		}
	}
	// boundedPareto respects both bounds.
	for i := 0; i < 1000; i++ {
		v := boundedPareto(rng, 3, 1.1, 50)
		if v < 3-1e-9 || v > 50+1e-9 {
			t.Fatalf("boundedPareto draw %v outside [3,50]", v)
		}
	}
	if got := boundedPareto(rng, 5, 1, 5); got != 5 {
		t.Fatalf("degenerate boundedPareto = %v, want 5", got)
	}
}

func TestGammaDrawProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []float64{0.1, 0.5, 1, 2, 10} {
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			v := gammaDraw(rng, shape)
			if v < 0 {
				t.Fatalf("gammaDraw(%v) negative", shape)
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-shape)/shape > 0.15 {
			t.Fatalf("gammaDraw(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestGammaDrawPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gammaDraw(0) should panic")
		}
	}()
	gammaDraw(rand.New(rand.NewSource(1)), 0)
}

func TestSubSeedIndependence(t *testing.T) {
	f := func(master int64, a, b uint64) bool {
		if a == b {
			return true
		}
		return xrand.Derive(master, tagVDSeries, a) != xrand.Derive(master, tagVDSeries, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if xrand.Derive(1, tagVDSeries, 5) == xrand.Derive(1, tagQPSplit, 5) {
		t.Fatal("different tags collided")
	}
}

func TestBetaLikeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := betaLike(rng, 0.3, 0.35)
		if v < 0 || v > 1 {
			t.Fatalf("betaLike out of range: %v", v)
		}
	}
	if betaLike(rng, 0, 0.5) != 0 || betaLike(rng, 1, 0.5) != 1 {
		t.Fatal("betaLike boundary means should clamp")
	}
	// Mean should be near the requested mean.
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		sum += betaLike(rng, 0.3, 0.35)
	}
	if got := sum / n; math.Abs(got-0.3) > 0.05 {
		t.Fatalf("betaLike mean = %v, want ~0.3", got)
	}
}

func TestGeometricAtLeast1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if geometricAtLeast1(rng, 0.5) != 1 {
		t.Fatal("mean <= 1 should return 1")
	}
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		v := geometricAtLeast1(rng, 3)
		if v < 1 {
			t.Fatal("geometric draw below 1")
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.3 {
		t.Fatalf("geometric mean = %v, want ~3", mean)
	}
}

func TestAppTrafficShareWeight(t *testing.T) {
	// BigData should carry the largest popularity x rate product (Table 4:
	// highest traffic share).
	big := AppTrafficShareWeight(cluster.AppBigData)
	for app := cluster.AppClass(0); int(app) < cluster.NumAppClasses; app++ {
		if app == cluster.AppBigData {
			continue
		}
		if AppTrafficShareWeight(app) >= big {
			t.Fatalf("%v share weight >= BigData", app)
		}
	}
}

func TestFineSlotsPersistentMode(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	// Find one persistent and one scattered VD.
	persistent, scattered := cluster.VDID(-1), cluster.VDID(-1)
	for vd := range f.Models {
		if f.Models[vd].SlotPersistent && persistent < 0 {
			persistent = cluster.VDID(vd)
		}
		if !f.Models[vd].SlotPersistent && scattered < 0 {
			scattered = cluster.VDID(vd)
		}
	}
	if persistent < 0 || scattered < 0 {
		t.Skip("fleet lacks one of the slot styles")
	}
	sec := Sample{ReadBps: 1e6, WriteBps: 1e6}
	// Mass conservation holds in both modes.
	for _, vd := range []cluster.VDID{persistent, scattered} {
		r, w := f.FineSlots(vd, 3, 100, sec)
		if math.Abs(stats.Sum(r)-1e6) > 1 || math.Abs(stats.Sum(w)-1e6) > 1 {
			t.Fatalf("vd %d: slot mass not conserved", vd)
		}
	}
	// Persistent runs are contiguous: the set of active slots forms at most
	// one wrap-around run.
	r, _ := f.FineSlots(persistent, 3, 100, sec)
	active := 0
	transitions := 0
	for i := 0; i < 100; i++ {
		if r[i] > 0 {
			active++
		}
		if (r[i] > 0) != (r[(i+1)%100] > 0) {
			transitions++
		}
	}
	if active == 0 || transitions > 2 {
		t.Fatalf("persistent slots not a single run: active=%d transitions=%d", active, transitions)
	}
	// The run's phase persists (drifts slowly) across adjacent seconds:
	// consecutive seconds overlap in active slots.
	r2, _ := f.FineSlots(persistent, 4, 100, sec)
	overlap := 0
	for i := range r {
		if r[i] > 0 && r2[i] > 0 {
			overlap++
		}
	}
	if active > 2 && overlap == 0 {
		t.Fatal("persistent run does not persist across seconds")
	}
}

func TestGenAppEventsHotterReads(t *testing.T) {
	f := mustGenerate(t, smallConfig())
	// Pick a VD whose hot reads are mostly absorbed.
	var vd cluster.VDID = -1
	for i := range f.Models {
		m := &f.Models[i]
		if m.HotReadFrac < 0.5*m.HotAccessFrac && m.MeanReadBps > 1e5 {
			vd = cluster.VDID(i)
			break
		}
	}
	if vd < 0 {
		t.Skip("no absorbed-read VD")
	}
	m := &f.Models[vd]
	inHot := func(ev Event) bool {
		return ev.Offset >= m.HotspotOffset && ev.Offset < m.HotspotOffset+m.HotspotLen
	}
	count := func(gen func(cluster.VDID, int, int, func(Event))) (hot, total int) {
		gen(vd, 60, 1, func(ev Event) {
			if ev.Op != trace.OpRead {
				return
			}
			total++
			if inHot(ev) {
				hot++
			}
		})
		return hot, total
	}
	hotApp, totalApp := count(f.GenAppEvents)
	hotDev, totalDev := count(f.GenEvents)
	if totalApp < 200 || totalDev < 200 {
		t.Skip("too few reads in window")
	}
	appFrac := float64(hotApp) / float64(totalApp)
	devFrac := float64(hotDev) / float64(totalDev)
	if !(appFrac > devFrac) {
		t.Fatalf("app-level hot-read fraction %v not above device-level %v", appFrac, devFrac)
	}
}
