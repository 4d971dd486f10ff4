// Package control is the online predict→act mitigation control plane the
// paper's §8 thesis calls for: a runtime controller that watches per-epoch
// traffic observations accumulated *during* a simulation, feeds rolling
// per-BS/per-VD/per-WT rate series into predict models, and drives the
// mitigation levers the earlier chapters evaluated offline — inter-BS
// segment migrations (§6), throttle lending overrides (§5, Appendix B), and
// QP rebinding hints (§4) — one epoch ahead of the traffic they mitigate.
//
// Determinism is the design constraint everything here bends around. The
// engine simulates each virtual disk whole, from a single sequential RNG
// stream, so a controller cannot interleave with generation without changing
// draws. Instead a controlled run is two passes over the same seed: a
// traffic-only observe pass that runs the event generators and fills an
// Observation (integer counters per epoch and entity — commutative to merge,
// so worker-count invariant) without sampling latency or tracing, then a
// sequential control loop replaying the epochs in order (each policy sees
// only epochs <= e when deciding for e+1), and finally an actuated pass, a
// full engine run that applies the compiled Timeline through RNG-free
// lookups in the engine's emit path. Every decision lands in an epoch-stamped, fingerprintable log,
// and invariant.CheckControlActuation holds the log and the applied actions
// to a bijection. See DESIGN.md, "Mitigation control plane".
package control

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"ebslab/internal/trace"
)

// ObsShape fixes the dimensions of an Observation so per-shard instances are
// mergeable and the controller can interpret the flattened counters. Every
// field is a pure function of (fleet, run options), never of scheduling.
type ObsShape struct {
	// EpochSec is the control cadence: observations aggregate into
	// ceil(DurSec/EpochSec) epochs and the controller decides once per epoch.
	EpochSec int
	// DurSec is the observed window.
	DurSec int
	// Segments, VDs, QPs and WTs size the entity axes (WTs counts worker
	// threads fleet-wide, flattened via WTBase).
	Segments int
	VDs      int
	QPs      int
	WTs      int
	// WTBase[node] is the global index of that compute node's worker thread
	// 0; a batch row's global WT index is WTBase[Node] + WT.
	WTBase []int
	// Scale rescales thinned counters back to full-rate units (the run's
	// EventSampleEvery), so series compare against caps directly.
	Scale float64
}

// Epochs returns the number of whole-or-partial epochs in the window.
func (s ObsShape) Epochs() int {
	if s.EpochSec <= 0 || s.DurSec <= 0 {
		return 0
	}
	return (s.DurSec + s.EpochSec - 1) / s.EpochSec
}

// Validate rejects shapes that cannot index a batch row.
func (s ObsShape) Validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"EpochSec", s.EpochSec}, {"DurSec", s.DurSec},
		{"Segments", s.Segments}, {"VDs", s.VDs}, {"QPs", s.QPs}, {"WTs", s.WTs},
	} {
		if c.v <= 0 {
			return fmt.Errorf("control: ObsShape.%s is %d, want > 0", c.name, c.v)
		}
	}
	if len(s.WTBase) == 0 {
		return fmt.Errorf("control: ObsShape.WTBase is empty")
	}
	if s.Scale <= 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		return fmt.Errorf("control: ObsShape.Scale is %v, want finite > 0", s.Scale)
	}
	return nil
}

// Equal reports whether two shapes are identical in every field: epoch
// grid, window, entity axes, worker-thread layout, and scale. Observations
// merge, and batches index into them, only under an identical shape.
func (s ObsShape) Equal(t ObsShape) bool {
	if s.EpochSec != t.EpochSec || s.DurSec != t.DurSec ||
		s.Segments != t.Segments || s.VDs != t.VDs || s.QPs != t.QPs || s.WTs != t.WTs ||
		s.Scale != t.Scale || len(s.WTBase) != len(t.WTBase) {
		return false
	}
	for i := range s.WTBase {
		if s.WTBase[i] != t.WTBase[i] {
			return false
		}
	}
	return true
}

// Observation is the controller's telemetry: exact integer counters per
// (epoch, entity). Counters are commutative sums of per-IO contributions, so
// per-shard observations over disjoint virtual disks merge into the same
// state in any order — the property that keeps the decision log byte-stable
// across worker counts. Memory is epochs x entities, independent of the IO
// count.
type Observation struct {
	Shape ObsShape

	// Flattened [epoch*axis + id] counters.
	segR, segW []uint64 // bytes read/written per segment
	vdBytes    []uint64 // bytes per VD
	vdOps      []uint64 // IOs per VD
	qpOps      []uint64 // IOs per queue pair
	wtOps      []uint64 // IOs per worker thread, as attributed in the batch
}

// NewObservation allocates a zeroed observation of the shape.
func NewObservation(shape ObsShape) *Observation {
	e := shape.Epochs()
	return &Observation{
		Shape:   shape,
		segR:    make([]uint64, e*shape.Segments),
		segW:    make([]uint64, e*shape.Segments),
		vdBytes: make([]uint64, e*shape.VDs),
		vdOps:   make([]uint64, e*shape.VDs),
		qpOps:   make([]uint64, e*shape.QPs),
		wtOps:   make([]uint64, e*shape.WTs),
	}
}

// EpochOf maps a simulated second to its epoch, clamped into range (the
// generator can emit at the window's final instant).
func (o *Observation) EpochOf(sec int) int {
	ep := sec / o.Shape.EpochSec
	if max := o.Shape.Epochs() - 1; ep > max {
		ep = max
	}
	if ep < 0 {
		ep = 0
	}
	return ep
}

// ObserveBatch folds one columnar batch into the counters. The engine calls
// this on every shard flush, so it sees every generated IO (not just the
// trace-sampled ones).
func (o *Observation) ObserveBatch(b *trace.Batch) {
	sh := &o.Shape
	for i := 0; i < b.Len(); i++ {
		ep := o.EpochOf(int(b.TimeUS[i] / 1_000_000))
		size := uint64(b.Size[i])
		seg := ep*sh.Segments + int(b.Segment[i])
		if b.Op[i] == trace.OpRead {
			o.segR[seg] += size
		} else {
			o.segW[seg] += size
		}
		vd := ep*sh.VDs + int(b.VD[i])
		o.vdBytes[vd] += size
		o.vdOps[vd]++
		o.qpOps[ep*sh.QPs+int(b.QP[i])]++
		o.wtOps[ep*sh.WTs+sh.WTBase[b.Node[i]]+int(b.WT[i])]++
	}
}

// Merge adds other's counters into o. Both observations must have Equal
// shapes; merging is commutative, which is what makes the merged state
// independent of which worker observed which disk.
func (o *Observation) Merge(other *Observation) error {
	if !o.Shape.Equal(other.Shape) {
		return fmt.Errorf("control: merging observations of different shapes (%+v into %+v)", other.Shape, o.Shape)
	}
	for _, pair := range [][2][]uint64{
		{o.segR, other.segR}, {o.segW, other.segW},
		{o.vdBytes, other.vdBytes}, {o.vdOps, other.vdOps},
		{o.qpOps, other.qpOps}, {o.wtOps, other.wtOps},
	} {
		for i := range pair[0] {
			pair[0][i] += pair[1][i]
		}
	}
	return nil
}

// SegBytes returns segment seg's total (read+write) bytes in epoch ep,
// rescaled to full-rate units.
func (o *Observation) SegBytes(ep, seg int) float64 {
	i := ep*o.Shape.Segments + seg
	return float64(o.segR[i]+o.segW[i]) * o.Shape.Scale
}

// VDBps returns VD vd's mean offered throughput (bytes/s) in epoch ep.
func (o *Observation) VDBps(ep, vd int) float64 {
	return float64(o.vdBytes[ep*o.Shape.VDs+vd]) * o.Shape.Scale / float64(o.epochLen(ep))
}

// VDIOPS returns VD vd's mean offered IO rate (ops/s) in epoch ep.
func (o *Observation) VDIOPS(ep, vd int) float64 {
	return float64(o.vdOps[ep*o.Shape.VDs+vd]) * o.Shape.Scale / float64(o.epochLen(ep))
}

// QPOps returns queue pair qp's IO count in epoch ep (full-rate units).
func (o *Observation) QPOps(ep, qp int) float64 {
	return float64(o.qpOps[ep*o.Shape.QPs+qp]) * o.Shape.Scale
}

// WTOps returns worker thread wt's (global index) attributed IO count in
// epoch ep. Under an actuated run this reflects the rebinding the timeline
// applied, so it is the measured outcome, not the planning input.
func (o *Observation) WTOps(ep, wt int) float64 {
	return float64(o.wtOps[ep*o.Shape.WTs+wt]) * o.Shape.Scale
}

// epochLen returns epoch ep's length in seconds (the last epoch may be
// truncated by the window).
func (o *Observation) epochLen(ep int) int {
	n := o.Shape.EpochSec
	if last := o.Shape.DurSec - ep*o.Shape.EpochSec; last < n {
		n = last
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Fingerprint digests every counter in canonical order; two observations
// fingerprint identically iff they observed the same traffic.
func (o *Observation) Fingerprint() string {
	h := sha256.New()
	wU64(h, uint64(o.Shape.Epochs()))
	for _, xs := range [][]uint64{o.segR, o.segW, o.vdBytes, o.vdOps, o.qpOps, o.wtOps} {
		wU64(h, uint64(len(xs)))
		for _, x := range xs {
			wU64(h, x)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func wU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
