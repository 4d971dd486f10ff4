// Package diting implements the study's tracing tool (§2.3): a Dapper-like
// per-IO tracer that samples one in every trace.SampleRate IOs into trace
// records, and a full-scale aggregator that folds *every* IO into
// second-granularity metric rows for the compute domain (per QP-WT) and the
// storage domain (per segment), following the Table 1 schema.
//
// The ingest surface is batch-first: the simulation engine emits columnar
// trace.Batch blocks through EmitBatch, and Observe remains as the
// record-at-a-time path. Metric accumulators are slab-allocated and tracers
// are poolable (Acquire/Release), so steady-state ingest allocates nothing.
package diting

import (
	"cmp"
	"slices"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// slabBlockSize is the accumulator slab granularity: one allocation per 256
// distinct metric keys instead of one per key.
const slabBlockSize = 256

// Tracer accumulates one observation window of trace and metric data.
// It is not safe for concurrent use; the parallel simulation engine gives
// each shard its own Tracer and combines them afterwards with Merge.
type Tracer struct {
	sampleEvery uint64
	nextID      uint64

	records []trace.Record

	compute map[computeKey]*accum
	storage map[storageKey]*accum

	// Accumulator slab: fixed-size blocks so handed-out pointers stay valid
	// as the tracer grows, reusable across pool generations.
	slabs               [][]accum
	slabBlock, slabNext int

	// EmitBatch accumulator memo for the current second (see batch.go).
	memoSec int32
	qpMemo  []qpMemoEnt
	segMemo []segMemoEnt

	// Sort scratch, reused across pool generations: merge and row export
	// sort permutation indices and packed keys instead of moving whole
	// records through a comparison sort.
	idxBuf    []int32
	keyBuf    []rowKey
	accBuf    []*accum
	concatBuf []trace.Record
}

// rowKey pairs a packed (sec, entity) sort key with the row's position in
// the export scratch. Sec and entity IDs are non-negative, so ordering by
// the packed uint64 equals ordering by (sec, entity).
type rowKey struct {
	k uint64
	i int32
}

type computeKey struct {
	sec int32
	qp  cluster.QPID
}

type storageKey struct {
	sec int32
	seg cluster.SegmentID
}

type accum struct {
	row trace.MetricRow
}

// New creates a tracer sampling one in sampleEvery IOs (use
// trace.SampleRate for the paper's 1/3200; values < 1 are clamped to 1).
func New(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		sampleEvery: uint64(sampleEvery),
		compute:     make(map[computeKey]*accum),
		storage:     make(map[storageKey]*accum),
		memoSec:     -1,
	}
}

// tracerPool recycles released tracers with their maps, slabs, and record
// buffers intact.
var tracerPool = sync.Pool{New: func() any { return New(1) }}

// Acquire returns a pooled tracer configured like New(sampleEvery). Release
// it when its outputs have been merged or detached.
func Acquire(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := tracerPool.Get().(*Tracer)
	t.sampleEvery = uint64(sampleEvery)
	return t
}

// Release resets the tracer and returns it to the pool. Anything still
// referencing its records or rows must have copied (Merge copies) or
// detached (DetachRecords) them first.
func (t *Tracer) Release() {
	t.nextID = 0
	t.records = t.records[:0]
	clear(t.compute)
	clear(t.storage)
	t.slabBlock, t.slabNext = 0, 0
	t.memoSec = -1
	t.qpMemo = t.qpMemo[:0]
	t.segMemo = t.segMemo[:0]
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
	t.concatBuf = t.concatBuf[:0]
	tracerPool.Put(t)
}

// DetachRecords returns the sampled records and removes them from the
// tracer, so the caller can retain them past a Release.
func (t *Tracer) DetachRecords() []trace.Record {
	out := t.records
	t.records = nil
	return out
}

// alloc carves one accumulator out of the slab. The caller must fully
// assign its row (slab memory is recycled dirty).
func (t *Tracer) alloc() *accum {
	if t.slabBlock == len(t.slabs) {
		t.slabs = append(t.slabs, make([]accum, slabBlockSize))
	}
	blk := t.slabs[t.slabBlock]
	a := &blk[t.slabNext]
	t.slabNext++
	if t.slabNext == len(blk) {
		t.slabBlock++
		t.slabNext = 0
	}
	return a
}

// NextTraceID issues a fresh unique trace ID.
func (t *Tracer) NextTraceID() uint64 {
	t.nextID++
	return t.nextID
}

// StartStream positions the tracer's ID counter at base, so subsequent
// NextTraceID calls issue base+1, base+2, ... Sharded simulations call this
// once per virtual disk with a disk-derived base: the sampling decision
// hashes the trace ID, so disk-derived IDs make the sampled set a pure
// function of (disk, per-disk sequence) — independent of which shard or
// worker processes the disk.
func (t *Tracer) StartStream(base uint64) { t.nextID = base }

// Observe ingests one completed IO: it always updates both metric domains
// and records the full trace when the ID falls in the sample. It is the
// record-at-a-time form of EmitBatch.
func (t *Tracer) Observe(rec trace.Record) {
	if t.sampled(rec.TraceID) {
		t.records = append(t.records, rec)
	}
	sec := int32(rec.TimeUS / 1_000_000)
	bytes := float64(rec.Size)

	ck := computeKey{sec: sec, qp: rec.QP}
	ca := t.compute[ck]
	if ca == nil {
		ca = t.alloc()
		ca.row = trace.MetricRow{
			Domain: trace.DomainCompute, Sec: sec, DC: rec.DC,
			User: rec.User, VM: rec.VM, VD: rec.VD,
			Node: rec.Node, QP: rec.QP, WT: rec.WT,
		}
		t.compute[ck] = ca
	}
	addDirectional(&ca.row, rec.Op, bytes)

	sk := storageKey{sec: sec, seg: rec.Segment}
	sa := t.storage[sk]
	if sa == nil {
		sa = t.alloc()
		sa.row = trace.MetricRow{
			Domain: trace.DomainStorage, Sec: sec, DC: rec.DC,
			User: rec.User, VM: rec.VM, VD: rec.VD,
			Storage: rec.Storage, Segment: rec.Segment,
		}
		t.storage[sk] = sa
	}
	addDirectional(&sa.row, rec.Op, bytes)
}

func addDirectional(row *trace.MetricRow, op trace.Op, bytes float64) {
	if op == trace.OpRead {
		row.ReadBps += bytes
		row.ReadIOPS++
	} else {
		row.WriteBps += bytes
		row.WriteIOPS++
	}
}

// sampled mirrors trace.Sampled but honors the tracer's configured rate.
func (t *Tracer) sampled(id uint64) bool {
	if t.sampleEvery == 1 {
		return true
	}
	return xrand.Mix(id)%t.sampleEvery == 0
}

// Records returns the sampled trace records in observation order.
func (t *Tracer) Records() []trace.Record { return t.records }

// ComputeRows returns the compute-domain metric rows sorted by (sec, qp).
// Since rows aggregate exactly one second, the accumulated byte totals are
// already rates (bytes/s and ops/s).
func (t *Tracer) ComputeRows() []trace.MetricRow {
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
	for k, a := range t.compute {
		t.keyBuf = append(t.keyBuf, rowKey{uint64(uint32(k.sec))<<32 | uint64(uint32(k.qp)), int32(len(t.accBuf))})
		t.accBuf = append(t.accBuf, a)
	}
	return t.exportRows()
}

// exportRows sorts keyBuf and materializes accBuf's rows in key order. Keys
// are unique (one accumulator per map key), so the order is deterministic.
// Sorting 12-byte keys and copying each 96-byte row exactly once is far
// cheaper than comparison-sorting the rows themselves.
func (t *Tracer) exportRows() []trace.MetricRow {
	slices.SortFunc(t.keyBuf, func(a, b rowKey) int { return cmp.Compare(a.k, b.k) })
	out := make([]trace.MetricRow, len(t.keyBuf))
	for j, kv := range t.keyBuf {
		out[j] = t.accBuf[kv.i].row
	}
	return out
}

// Merge combines shard tracers into one: metric accumulators are merged by
// key (summing rates when shards touched the same key), trace records are
// concatenated and sorted into canonical (TimeUS, VD) order, and trace IDs
// are reassigned 1..N in that order. Because each virtual disk is processed
// whole by exactly one shard, same-VD records arrive contiguous and in
// generation order, which the stable sort preserves — so the merged output
// is byte-identical no matter how disks were distributed across shards.
// Rows and records are copied into the destination, so the shards may be
// Released afterwards (they must not be observed into again regardless).
func Merge(sampleEvery int, shards ...*Tracer) *Tracer {
	out := Acquire(sampleEvery)
	return mergeInto(out, shards...)
}

// mergeInto is Merge into a caller-supplied destination tracer (fresh from
// New or Acquire).
func mergeInto(out *Tracer, shards ...*Tracer) *Tracer {
	var nRecords int
	for _, sh := range shards {
		nRecords += len(sh.records)
	}
	// Concatenate into out's reusable buffer, then stable-sort a permutation
	// and materialize once: each record moves twice in total, instead of the
	// O(n log n) whole-record moves of sorting the records in place. The
	// index sort is stable over increasing indices, so it yields exactly the
	// stable (TimeUS, VD) order.
	if cap(out.concatBuf) < nRecords {
		out.concatBuf = make([]trace.Record, 0, nRecords)
	}
	concat := out.concatBuf[:0]
	for _, sh := range shards {
		concat = append(concat, sh.records...)
		mergeAccums(out, out.compute, sh.compute)
		mergeAccums(out, out.storage, sh.storage)
	}
	out.concatBuf = concat
	if cap(out.idxBuf) < nRecords {
		out.idxBuf = make([]int32, nRecords)
	}
	idx := out.idxBuf[:nRecords]
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		ra, rb := &concat[a], &concat[b]
		if ra.TimeUS != rb.TimeUS {
			return cmp.Compare(ra.TimeUS, rb.TimeUS)
		}
		return cmp.Compare(ra.VD, rb.VD)
	})
	sorted := make([]trace.Record, nRecords)
	for j, i := range idx {
		sorted[j] = concat[i]
		sorted[j].TraceID = uint64(j + 1)
	}
	out.records = sorted
	out.nextID = uint64(nRecords)
	return out
}

// mergeAccums folds src into dst, summing directional rates on key
// collisions (identity fields agree by construction: the key pins the row's
// entity and every entity belongs to exactly one VD). Rows are copied into
// out's slab — never aliased — so src's owner can recycle its memory.
func mergeAccums[K comparable](out *Tracer, dst, src map[K]*accum) {
	for k, sa := range src {
		da := dst[k]
		if da == nil {
			da = out.alloc()
			da.row = sa.row
			dst[k] = da
			continue
		}
		da.row.ReadBps += sa.row.ReadBps
		da.row.WriteBps += sa.row.WriteBps
		da.row.ReadIOPS += sa.row.ReadIOPS
		da.row.WriteIOPS += sa.row.WriteIOPS
	}
}

// StorageRows returns the storage-domain metric rows sorted by (sec, seg).
func (t *Tracer) StorageRows() []trace.MetricRow {
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
	for k, a := range t.storage {
		t.keyBuf = append(t.keyBuf, rowKey{uint64(uint32(k.sec))<<32 | uint64(uint32(k.seg)), int32(len(t.accBuf))})
		t.accBuf = append(t.accBuf, a)
	}
	return t.exportRows()
}
