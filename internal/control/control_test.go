package control

import (
	"strings"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
)

// testShape is a deliberately tiny world: 4 segments, 2 VDs, 2 QPs, one
// node with 2 WTs, 3 epochs of 10s (the last truncated to 5s).
func testShape() ObsShape {
	return ObsShape{
		EpochSec: 10, DurSec: 25,
		Segments: 4, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
}

func TestObsShapeEpochs(t *testing.T) {
	sh := testShape()
	if got := sh.Epochs(); got != 3 {
		t.Fatalf("Epochs() = %d, want 3 (ceil 25/10)", got)
	}
	bad := sh
	bad.EpochSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted EpochSec 0")
	}
}

// observe appends one synthetic IO row to a batch.
func observe(b *trace.Batch, sec int, op trace.Op, size int32, vd, qp, seg int, wt int8) {
	i := b.Next()
	b.TimeUS[i] = int64(sec) * 1_000_000
	b.Op[i] = op
	b.Size[i] = size
	b.VD[i] = cluster.VDID(vd)
	b.QP[i] = cluster.QPID(qp)
	b.WT[i] = wt
	b.Node[i] = 0
	b.Segment[i] = cluster.SegmentID(seg)
}

func TestObservationCountsAndMerge(t *testing.T) {
	sh := testShape()
	a := NewObservation(sh)
	b := NewObservation(sh)

	batch := trace.NewBatch(8)
	observe(batch, 3, trace.OpRead, 100, 0, 0, 1, 0)
	observe(batch, 12, trace.OpWrite, 50, 1, 1, 2, 1)
	a.ObserveBatch(batch)

	batch2 := trace.NewBatch(8)
	observe(batch2, 24, trace.OpRead, 200, 0, 0, 1, 0)
	b.ObserveBatch(batch2)

	if got := a.SegBytes(0, 1); got != 100 {
		t.Fatalf("SegBytes(0,1) = %v, want 100", got)
	}
	if got := a.SegBytes(1, 2); got != 50 {
		t.Fatalf("SegBytes(1,2) = %v, want 50", got)
	}
	// Epoch 2 is truncated to 5s, so 200 bytes is 40 B/s.
	if got := b.VDBps(2, 0); got != 40 {
		t.Fatalf("VDBps(2,0) = %v, want 40 (5s epoch)", got)
	}
	if got := a.VDIOPS(1, 1); got != 0.1 {
		t.Fatalf("VDIOPS(1,1) = %v, want 0.1", got)
	}
	if got := a.QPOps(0, 0); got != 1 {
		t.Fatalf("QPOps(0,0) = %v, want 1", got)
	}
	if got := a.WTOps(1, 1); got != 1 {
		t.Fatalf("WTOps(1,1) = %v, want 1", got)
	}

	// Merge is commutative: a+b and b+a fingerprint identically.
	ab := NewObservation(sh)
	if err := ab.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := NewObservation(sh)
	if err := ba.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if ab.Fingerprint() != ba.Fingerprint() {
		t.Fatalf("merge is not commutative: %s vs %s", ab.Fingerprint(), ba.Fingerprint())
	}
	if a.Fingerprint() == ab.Fingerprint() {
		t.Fatalf("merging new counters did not change the fingerprint")
	}
}

// TestObservationMergeRejectsShapeMismatch: observations merge only under
// an identical shape. Equal epoch counts and axes are not enough: a
// different epoch grid, scale, or worker-thread layout gives the same
// counter indices a different meaning.
func TestObservationMergeRejectsShapeMismatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dst, src func(*ObsShape)
	}{
		{"segments", func(*ObsShape) {}, func(s *ObsShape) { s.Segments = 5 }},
		{"epoch grid", func(s *ObsShape) { s.EpochSec, s.DurSec = 6, 72 },
			func(s *ObsShape) { s.EpochSec, s.DurSec = 5, 60 }},
		{"scale", func(s *ObsShape) { s.Scale = 16 }, func(s *ObsShape) { s.Scale = 4 }},
		{"wtbase", func(s *ObsShape) { s.WTs, s.WTBase = 4, []int{0, 2} },
			func(s *ObsShape) { s.WTs, s.WTBase = 4, []int{0, 1} }},
	} {
		dst, src := testShape(), testShape()
		tc.dst(&dst)
		tc.src(&src)
		if err := NewObservation(dst).Merge(NewObservation(src)); err == nil {
			t.Fatalf("%s: Merge accepted %+v into %+v", tc.name, src, dst)
		}
		if err := NewObservation(dst).Merge(NewObservation(dst)); err != nil {
			t.Fatalf("%s: Merge rejected an identical shape: %v", tc.name, err)
		}
	}
}

func TestTimelineSemantics(t *testing.T) {
	tl := NewTimeline(10, 25)
	if !tl.Empty() {
		t.Fatalf("fresh timeline is not empty")
	}
	if got := tl.EpochOf(-3); got != 0 {
		t.Fatalf("EpochOf(-3) = %d, want 0", got)
	}
	if got := tl.EpochOf(24); got != 2 {
		t.Fatalf("EpochOf(24) = %d, want 2", got)
	}
	if got := tl.EpochOf(999); got != 2 {
		t.Fatalf("EpochOf(999) = %d (clamp), want 2", got)
	}

	row := []cluster.StorageNodeID{1, 0, 0, 0}
	tl.setPlacement(1, row)
	if tl.BSRow(0) != nil {
		t.Fatalf("epoch 0 has a placement row before any move")
	}
	// Forward fill: the row set at epoch 1 covers epoch 2 as well.
	for ep := 1; ep <= 2; ep++ {
		got := tl.BSRow(ep)
		if got == nil || got[0] != 1 {
			t.Fatalf("epoch %d placement row = %v, want seg0 on BS 1", ep, got)
		}
	}
	tl.markMoved(1, 0, 4)
	if !tl.MovedAt(1, 0) || tl.MovedAt(2, 0) || tl.MovedAt(1, 1) {
		t.Fatalf("moved bitset wrong: %v %v %v", tl.MovedAt(1, 0), tl.MovedAt(2, 0), tl.MovedAt(1, 1))
	}
	tl.addLend(2, 0, 2, 100, -5)
	if r := tl.LendTput(1); r != nil {
		t.Fatalf("epoch 1 lend row = %v, want nil (lends are per-epoch, not filled forward)", r)
	}
	if r := tl.LendTput(2); r == nil || r[0] != 100 {
		t.Fatalf("epoch 2 tput lend row = %v, want [100 0]", r)
	}
	if !tl.VDLends(0) || tl.VDLends(1) {
		t.Fatalf("VDLends wrong: %v %v", tl.VDLends(0), tl.VDLends(1))
	}
	if tl.Empty() {
		t.Fatalf("timeline with actions reports Empty")
	}
	if err := tl.Validate(4, 2, 2); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := tl.Validate(5, 2, 2); err == nil {
		t.Fatalf("Validate accepted a wrong segment count")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"noop", "reactive", "predictive", "predictive-holt", "predictive-arima", "predictive-gbt", "oracle"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("ByName(%s): empty policy name", name)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("ByName(nope) = %v, want unknown-policy error", err)
	}
}

// synthInput builds a 2-BS world where segment 0 is persistently hot on BS 0
// and VD 0 runs far over its throughput cap while its VM sibling VD 1 idles:
// the controller must migrate the hot segment and lend cap within the VM.
func synthInput(t *testing.T) Input {
	t.Helper()
	sh := ObsShape{
		EpochSec: 10, DurSec: 40,
		Segments: 4, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
	obs := NewObservation(sh)
	batch := trace.NewBatch(64)
	for sec := 0; sec < 40; sec += 2 {
		// Segments 0 and 1 (VD 0, QP 0, WT 0) make BS 0 the hot spot,
		// 4 MB each every 2s. Two warm segments, not one: exporting one
		// of them genuinely improves the exporter, so the movability
		// margin allows the migration.
		observe(batch, sec, trace.OpWrite, 4<<20, 0, 0, 0, 0)
		observe(batch, sec, trace.OpWrite, 4<<20, 0, 0, 1, 0)
		// Segment 2 (VD 1, QP 1, WT 1) trickles.
		observe(batch, sec, trace.OpRead, 4096, 1, 1, 2, 1)
	}
	obs.ObserveBatch(batch)

	placement := cluster.NewSegmentMap(4, 2)
	for seg := 0; seg < 2; seg++ {
		placement.Assign(cluster.SegmentID(seg), 0)
	}
	for seg := 2; seg < 4; seg++ {
		placement.Assign(cluster.SegmentID(seg), 1)
	}
	return Input{
		Obs:       obs,
		Placement: placement,
		Binding:   []int8{0, 1},
		Caps: []throttle.Caps{
			{Tput: 1 << 20, IOPS: 1000}, // VD 0: 1 MB/s cap, demand ~4 MB/s
			{Tput: 64 << 20, IOPS: 1000},
		},
		VMOfVD:   []int{0, 0}, // same VM: lending is possible
		NodeOfQP: []int{0, 0},
	}
}

func TestBuildPlanMitigatesAndConserves(t *testing.T) {
	in := synthInput(t)
	plan, err := BuildPlan(Reactive{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var migrates, lends int
	lendSum := map[int]float64{}
	for _, d := range plan.Decisions {
		switch d.Kind {
		case DecMigrate:
			migrates++
			if d.From != 0 {
				t.Errorf("migration exports from BS %d, want 0 (the hot BS)", d.From)
			}
		case DecLend:
			lends++
			lendSum[d.Epoch] += d.TputDelta
		}
		if d.Epoch < 1 || d.Epoch >= in.Obs.Shape.Epochs() {
			t.Errorf("decision targets epoch %d outside (0, %d)", d.Epoch, in.Obs.Shape.Epochs())
		}
	}
	if migrates == 0 {
		t.Errorf("no migration decided for a persistently hot segment\n%+v", plan.Decisions)
	}
	if lends == 0 {
		t.Errorf("no lending decided for a VD at 4x its cap with an idle sibling\n%+v", plan.Decisions)
	}
	for ep, sum := range lendSum {
		if sum > 1e-6 {
			t.Errorf("epoch %d lending mints %v B/s", ep, sum)
		}
	}
	if len(plan.Applied) != migrates {
		t.Errorf("%d applied entries for %d migrate decisions", len(plan.Applied), migrates)
	}
	if len(plan.BSLoad) != in.Obs.Shape.Epochs() {
		t.Errorf("BSLoad has %d epochs, want %d", len(plan.BSLoad), in.Obs.Shape.Epochs())
	}

	// Determinism: the same input replans to the same decision log.
	again, err := BuildPlan(Reactive{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.LogFingerprint() != again.LogFingerprint() {
		t.Fatalf("replanning the same input changed the decision log")
	}

	// The no-op policy decides nothing and compiles an empty timeline.
	noop, err := BuildPlan(NoOp{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(noop.Decisions) != 0 || !noop.Timeline.Empty() {
		t.Fatalf("noop produced %d decisions, empty=%v", len(noop.Decisions), noop.Timeline.Empty())
	}
}

func TestImbalance(t *testing.T) {
	rep := Imbalance([][]float64{
		{1, 1, 1, 1}, // perfectly balanced epoch
		{4, 0, 0, 0}, // maximally skewed epoch
	})
	if rep.PerEpoch[0] != 0 {
		t.Fatalf("balanced epoch CoV = %v, want 0", rep.PerEpoch[0])
	}
	if rep.PerEpoch[1] <= rep.PerEpoch[0] || rep.MaxCoV != rep.PerEpoch[1] {
		t.Fatalf("skewed epoch CoV %v, max %v", rep.PerEpoch[1], rep.MaxCoV)
	}
	if rep.PeakShare != 1 {
		t.Fatalf("PeakShare = %v, want 1", rep.PeakShare)
	}
	if want := (rep.PerEpoch[0] + rep.PerEpoch[1]) / 2; rep.MeanCoV != want {
		t.Fatalf("MeanCoV = %v, want %v", rep.MeanCoV, want)
	}
}
