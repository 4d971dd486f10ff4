package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// ErrWire reports a malformed fabric message.
var ErrWire = errors.New("fabric: malformed message")

// RunSpec is the serializable description of a distributed run: everything a
// worker needs to regenerate the fleet and execute shards byte-identically
// to the coordinator's own single-process run. Fields mirror ebs.Options;
// Stream carries the sketch configuration (nil = no streaming) because a
// live *sketch.Set cannot cross the wire — each worker builds its own
// destination set from the config.
type RunSpec struct {
	DurationSec      int
	TraceSampleEvery int
	EventSampleEvery int
	MaxVDs           int
	Workers          int
	DisableThrottle  bool
	Check            bool
	Seed             int64
	Chaos            *chaos.Plan    `json:",omitempty"`
	Stream           *sketch.Config `json:",omitempty"`
	// Scenario is the scenario spec string ("" = the fleet's native
	// traffic). A live scenario.Workload cannot cross the wire — it is bound
	// to a fleet instance — so workers rebuild from the spec and bind the
	// result to their own regenerated fleet, which the scenario determinism
	// contract makes bit-identical to any other binding of the same recipe.
	Scenario string `json:",omitempty"`
}

// specOf projects the serializable subset of opts. Callback and destination
// fields (Progress, ChaosStats) stay coordinator-side; a non-nil
// Stream is reduced to its configuration.
func specOf(opts ebs.Options) RunSpec {
	spec := RunSpec{
		DurationSec:      opts.DurationSec,
		TraceSampleEvery: opts.TraceSampleEvery,
		EventSampleEvery: opts.EventSampleEvery,
		MaxVDs:           opts.MaxVDs,
		Workers:          opts.Workers,
		DisableThrottle:  opts.DisableThrottle,
		Check:            opts.Check,
		Seed:             opts.Seed,
		Chaos:            opts.Chaos,
	}
	if opts.Stream != nil {
		cfg := opts.Stream.Config()
		spec.Stream = &cfg
	}
	return spec
}

// options reconstitutes executable run options from the spec.
func (r RunSpec) options() ebs.Options {
	opts := ebs.Options{
		DurationSec:      r.DurationSec,
		TraceSampleEvery: r.TraceSampleEvery,
		EventSampleEvery: r.EventSampleEvery,
		MaxVDs:           r.MaxVDs,
		Workers:          r.Workers,
		DisableThrottle:  r.DisableThrottle,
		Check:            r.Check,
		Seed:             r.Seed,
		Chaos:            r.Chaos,
	}
	if r.Stream != nil {
		opts.Stream = sketch.NewSet(*r.Stream)
	}
	return opts
}

// JoinReply answers a worker's JoinFleet: its assigned identity plus the full
// run description. The worker regenerates the fleet from the config — the
// generator is deterministic, so shipping the recipe instead of the topology
// keeps the join payload small and the worker's view bit-identical.
type JoinReply struct {
	WorkerID    uint64
	Fleet       workload.Config
	Spec        RunSpec
	Shards      int
	HeartbeatMS int64
}

// Assignment statuses.
const (
	// AssignShard hands the worker a shard to execute.
	AssignShard = "shard"
	// AssignWait means nothing is placeable on this worker right now (it
	// already attempted every pending shard); poll again shortly.
	AssignWait = "wait"
	// AssignDone means every shard is accounted for; the worker may leave.
	AssignDone = "done"
)

// workerMsg is the generic worker-identified request body (AssignShard,
// Heartbeat, Drain).
type workerMsg struct {
	WorkerID uint64
}

// AssignReply answers AssignShard.
type AssignReply struct {
	Status string
	Shard  int
	Lo, Hi int
}

// resultReply answers ShardResult. Accepted is false when at-most-once
// accounting dropped the result as a duplicate.
type resultReply struct {
	Accepted bool
	Done     bool
}

// RedirectReply is the payload of a StatusRedirect response (and of the
// OpRedirectLeader query): the answering replica's best knowledge of who
// leads the control plane. Known is false mid-election; Addr is set when the
// replica was configured with peer addresses.
type RedirectReply struct {
	Leader int
	Addr   string `json:",omitempty"`
	Known  bool
}

// decodeRedirect parses a redirect payload, tolerating malformed hints (a
// worker falls back to round-robin probing when ok is false).
func decodeRedirect(info []byte) (r RedirectReply, ok bool) {
	if err := fromJSON(info, &r); err != nil {
		return RedirectReply{}, false
	}
	return r, true
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fabric: marshal %T: %v", v, err))
	}
	return b
}

func fromJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %v", ErrWire, err)
	}
	return nil
}

// --- ShardResult binary codec ---------------------------------------------
//
// The result frame is the fabric's bulk path: a whole shard's sampled trace
// records, metric rows, sketch state, and accounting. Floats travel as raw
// IEEE bits so the coordinator merges exactly the values the worker
// computed — a lossy text encoding here would break the byte-identical
// dataset guarantee.
//
//	frame: u64 workerID | u32 shardID | partial
//	partial: u32 lo | u32 hi
//	       | u32 nRec  | nRec  * record
//	       | u32 nComp | nComp * metricRow
//	       | u32 nStor | nStor * metricRow
//	       | u8 hasSketch [| u32 len | sketch.Set binary]
//	       | chaos: u64 faultedIOs | u64 stormIOs
//	       | u32 nEmit | nEmit * (5 * u64)
//	       | u32 nAudit | nAudit * (u32 len | bytes)

const (
	recordWire    = 8 + 8 + 1 + 4 + 8 + 8*4 + 1 + 4*int(trace.NumStages)
	metricRowWire = 1 + 4 + 8*4 + 1 + 4*8
	emissionWire  = 5 * 8
)

type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wireWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *wireWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *wireWriter) f32(v float32) {
	w.u32(math.Float32bits(v))
}
func (w *wireWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}

type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWire
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *wireReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) i32() int32     { return int32(r.u32()) }
func (r *wireReader) i64() int64     { return int64(r.u64()) }
func (r *wireReader) f32() float32   { return math.Float32frombits(r.u32()) }
func (r *wireReader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *wireReader) remaining() int { return len(r.b) - r.off }

// count reads a u32 element count and pre-validates it against the bytes
// actually remaining, so a hostile header cannot size an allocation.
func (r *wireReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || elemSize > 0 && n > r.remaining()/elemSize) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return n
}

func appendRecord(w *wireWriter, rec *trace.Record) {
	w.u64(rec.TraceID)
	w.i64(rec.TimeUS)
	w.u8(uint8(rec.Op))
	w.i32(rec.Size)
	w.i64(rec.Offset)
	w.i32(int32(rec.DC))
	w.i32(int32(rec.Node))
	w.i32(int32(rec.User))
	w.i32(int32(rec.VM))
	w.i32(int32(rec.VD))
	w.i32(int32(rec.QP))
	w.u8(uint8(rec.WT))
	w.i32(int32(rec.Storage))
	w.i32(int32(rec.Segment))
	for _, l := range rec.Latency {
		w.f32(l)
	}
}

func readRecord(r *wireReader) trace.Record {
	var rec trace.Record
	rec.TraceID = r.u64()
	rec.TimeUS = r.i64()
	rec.Op = trace.Op(r.u8())
	rec.Size = r.i32()
	rec.Offset = r.i64()
	rec.DC = cluster.DCID(r.i32())
	rec.Node = cluster.NodeID(r.i32())
	rec.User = cluster.UserID(r.i32())
	rec.VM = cluster.VMID(r.i32())
	rec.VD = cluster.VDID(r.i32())
	rec.QP = cluster.QPID(r.i32())
	rec.WT = int8(r.u8())
	rec.Storage = cluster.StorageNodeID(r.i32())
	rec.Segment = cluster.SegmentID(r.i32())
	for i := range rec.Latency {
		rec.Latency[i] = r.f32()
	}
	if rec.Op > trace.OpWrite {
		r.fail()
	}
	return rec
}

func appendMetricRow(w *wireWriter, row *trace.MetricRow) {
	w.u8(uint8(row.Domain))
	w.i32(row.Sec)
	w.i32(int32(row.DC))
	w.i32(int32(row.User))
	w.i32(int32(row.VM))
	w.i32(int32(row.VD))
	w.i32(int32(row.Node))
	w.i32(int32(row.QP))
	w.u8(uint8(row.WT))
	w.i32(int32(row.Storage))
	w.i32(int32(row.Segment))
	w.f64(row.ReadBps)
	w.f64(row.WriteBps)
	w.f64(row.ReadIOPS)
	w.f64(row.WriteIOPS)
}

func readMetricRow(r *wireReader) trace.MetricRow {
	var row trace.MetricRow
	row.Domain = trace.Domain(r.u8())
	row.Sec = r.i32()
	row.DC = cluster.DCID(r.i32())
	row.User = cluster.UserID(r.i32())
	row.VM = cluster.VMID(r.i32())
	row.VD = cluster.VDID(r.i32())
	row.Node = cluster.NodeID(r.i32())
	row.QP = cluster.QPID(r.i32())
	row.WT = int8(r.u8())
	row.Storage = cluster.StorageNodeID(r.i32())
	row.Segment = cluster.SegmentID(r.i32())
	row.ReadBps = r.f64()
	row.WriteBps = r.f64()
	row.ReadIOPS = r.f64()
	row.WriteIOPS = r.f64()
	if row.Domain > trace.DomainStorage {
		r.fail()
	}
	return row
}

// framePool recycles shard-result frame buffers. netblock.Client.Call is
// synchronous — the frame is fully written before Call returns — so a worker
// can hand the buffer back as soon as the upload call completes.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// encodeResult frames one shard result for the wire.
func encodeResult(workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	return encodeResultInto(nil, workerID, shardID, p)
}

// encodeResultInto is encodeResult appending into buf (grown as needed),
// letting callers reuse frame memory across shards.
func encodeResultInto(buf []byte, workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	need := 16 + len(p.Records)*recordWire + (len(p.Compute)+len(p.Storage))*metricRowWire
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	w := &wireWriter{b: buf[:0]}
	w.u64(workerID)
	w.u32(uint32(shardID))
	w.u32(uint32(p.Lo))
	w.u32(uint32(p.Hi))
	w.u32(uint32(len(p.Records)))
	for i := range p.Records {
		appendRecord(w, &p.Records[i])
	}
	w.u32(uint32(len(p.Compute)))
	for i := range p.Compute {
		appendMetricRow(w, &p.Compute[i])
	}
	w.u32(uint32(len(p.Storage)))
	for i := range p.Storage {
		appendMetricRow(w, &p.Storage[i])
	}
	if p.Sketch != nil {
		w.u8(1)
		enc := p.Sketch.EncodeBinary()
		w.u32(uint32(len(enc)))
		w.b = append(w.b, enc...)
	} else {
		w.u8(0)
	}
	w.i64(p.Chaos.FaultedIOs)
	w.i64(p.Chaos.StormIOs)
	w.u32(uint32(len(p.Emission)))
	for i := range p.Emission {
		e := &p.Emission[i]
		w.i64(e.Events)
		w.i64(e.ReadOps)
		w.i64(e.WriteOps)
		w.i64(e.ReadBytes)
		w.i64(e.WriteBytes)
	}
	w.u32(uint32(len(p.Audit)))
	for _, s := range p.Audit {
		w.u32(uint32(len(s)))
		w.b = append(w.b, s...)
	}
	return w.b
}

// decodeResult parses one shard-result frame. Every section length is
// validated against the bytes actually present before allocation, and
// trailing bytes are rejected: a frame either decodes completely or not at
// all.
func decodeResult(data []byte) (workerID uint64, shardID int, p *ebs.ShardPartial, err error) {
	r := &wireReader{b: data}
	workerID = r.u64()
	shardID = int(r.u32())
	p = &ebs.ShardPartial{}
	p.Lo = int(r.u32())
	p.Hi = int(r.u32())
	if n := r.count(recordWire); n > 0 {
		p.Records = make([]trace.Record, n)
		for i := range p.Records {
			p.Records[i] = readRecord(r)
		}
	}
	if n := r.count(metricRowWire); n > 0 {
		p.Compute = make([]trace.MetricRow, n)
		for i := range p.Compute {
			p.Compute[i] = readMetricRow(r)
		}
	}
	if n := r.count(metricRowWire); n > 0 {
		p.Storage = make([]trace.MetricRow, n)
		for i := range p.Storage {
			p.Storage[i] = readMetricRow(r)
		}
	}
	switch r.u8() {
	case 0:
	case 1:
		enc := r.take(r.count(1))
		if r.err == nil {
			set, serr := sketch.DecodeSet(enc)
			if serr != nil {
				return 0, 0, nil, fmt.Errorf("%w: sketch: %v", ErrWire, serr)
			}
			p.Sketch = set
		}
	default:
		r.fail()
	}
	p.Chaos.FaultedIOs = r.i64()
	p.Chaos.StormIOs = r.i64()
	if n := r.count(emissionWire); n > 0 {
		p.Emission = make([]invariant.VDEmission, n)
		for i := range p.Emission {
			e := &p.Emission[i]
			e.Events = r.i64()
			e.ReadOps = r.i64()
			e.WriteOps = r.i64()
			e.ReadBytes = r.i64()
			e.WriteBytes = r.i64()
		}
	}
	if n := r.count(4); n > 0 {
		p.Audit = make([]string, n)
		for i := range p.Audit {
			p.Audit[i] = string(r.take(r.count(1)))
		}
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail()
	}
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if p.Lo < 0 || p.Hi < p.Lo {
		return 0, 0, nil, fmt.Errorf("%w: shard range [%d,%d)", ErrWire, p.Lo, p.Hi)
	}
	return workerID, shardID, p, nil
}
