package scenario

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// Replay schemas. "auto" sniffs the first line; the native schemas are the
// repo's own trace codecs; msr is the MSR-Cambridge block-trace CSV
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime with FILETIME
// ticks); tianchi is the Alibaba cloud-disk trace CSV
// (device_id,opcode,offset,length,timestamp with microsecond timestamps).
const (
	SchemaAuto        = "auto"
	SchemaNativeJSONL = "native-jsonl"
	SchemaNativeCSV   = "native-csv"
	SchemaMSR         = "msr"
	SchemaTianchi     = "tianchi"
)

// maxReplayEvents caps how many records one ingest may retain, so a huge
// foreign trace cannot exhaust memory: sample it down instead.
const maxReplayEvents = 1 << 24

// ReplayConfig shapes the replay scenario: a foreign (or native) block
// trace streamed from disk, normalised into the bound fleet, and replayed
// through the standard batch pipeline.
//
// Normalisation rules for foreign schemas: timestamps are rebased to the
// first record and converted to microseconds (scaled by TimeScale); devices
// are mapped onto fleet VDs by a stable hash; offsets are wrapped into the
// target VD's capacity and 4 KiB-aligned; sizes are rounded up to a 4 KiB
// multiple and clamped to 4 MiB; queue pairs are picked by a seed-derived
// hash of the record ordinal. Native schemas are replayed verbatim
// (RecordSource), preserving measured latencies and placement — replaying a
// round-tripped native trace of the same fleet reproduces the original
// dataset fingerprint. Malformed input (bad numbers, NaN, negative offsets
// or sizes, unknown opcodes) fails the ingest with a positional error; no
// record is ever silently skipped.
type ReplayConfig struct {
	// Path is the trace file to ingest.
	Path string
	// Schema names the input layout (default auto).
	Schema string
	// SampleEvery keeps one in N input records, decided by a deterministic
	// hash of the record ordinal — the same subset for every worker count
	// and target fleet (default 1 = keep everything; 3200 mimics the
	// paper's tracing rate).
	SampleEvery int
	// TimeScale multiplies foreign relative timestamps (default 1; 0.1
	// compresses a long trace tenfold into the run window).
	TimeScale float64
}

func buildReplay(sp Spec) (config, error) {
	c := ReplayConfig{Schema: SchemaAuto, SampleEvery: 1, TimeScale: 1}
	p := newParams(sp)
	p.Str("path", &c.Path)
	p.Str("schema", &c.Schema)
	p.Int("sample", &c.SampleEvery)
	p.Float("timescale", &c.TimeScale)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate rejects parameter values that have no meaning.
func (c ReplayConfig) Validate() error {
	if c.Path == "" {
		return fmt.Errorf("scenario: replay needs path=<trace file>")
	}
	return c.validateShape()
}

// validateShape checks every field except Path (Ingest callers supply their
// own reader).
func (c ReplayConfig) validateShape() error {
	switch c.Schema {
	case SchemaAuto, SchemaNativeJSONL, SchemaNativeCSV, SchemaMSR, SchemaTianchi:
	default:
		return fmt.Errorf("scenario: replay schema %q, want one of %s, %s, %s, %s, %s",
			c.Schema, SchemaAuto, SchemaNativeJSONL, SchemaNativeCSV, SchemaMSR, SchemaTianchi)
	}
	if c.SampleEvery < 1 {
		return fmt.Errorf("scenario: replay sample %d, want >= 1", c.SampleEvery)
	}
	if !(c.TimeScale > 0) || c.TimeScale > 1e6 {
		return fmt.Errorf("scenario: replay timescale %g, want in (0, 1e6]", c.TimeScale)
	}
	return nil
}

func (c ReplayConfig) bind(sp Spec, f *workload.Fleet) (Workload, error) {
	file, err := os.Open(c.Path)
	if err != nil {
		return nil, fmt.Errorf("scenario: replay: %w", err)
	}
	defer file.Close()
	r, err := c.Ingest(file, f)
	if err != nil {
		return nil, err
	}
	r.spec = sp
	return r, nil
}

// ReplayStats is the ingest accounting a replay exposes for reporting.
type ReplayStats struct {
	// Schema is the resolved (post-sniff) input schema.
	Schema string
	// Records is how many input records were parsed.
	Records int
	// Kept is how many survived sampling (and, for native schemas, how many
	// records the run will replay).
	Kept int
	// Reordered counts foreign records whose timestamp preceded the first
	// record's (clamped to the window start).
	Reordered int
	// Clamped counts foreign records whose size or offset had to be
	// adjusted to fit the target VD.
	Clamped int
}

// Replay is a bound replay scenario. Native-schema replays implement
// RecordSource (records pass through verbatim); foreign-schema replays
// normalise into events and take the generated path, where the engine
// supplies placement, worker threads, throttling, and latency.
type Replay struct {
	spec   Spec
	cfg    ReplayConfig
	fleet  *workload.Fleet
	native bool
	recs   [][]trace.Record
	events [][]workload.Event
	series [][]workload.Sample
	stats  ReplayStats
}

func (r *Replay) Name() string           { return "replay" }
func (r *Replay) Spec() string           { return r.spec.String() }
func (r *Replay) Fleet() *workload.Fleet { return r.fleet }

// Stats returns the ingest accounting.
func (r *Replay) Stats() ReplayStats { return r.stats }

// SourcesRecords reports whether this replay carries verbatim records.
func (r *Replay) SourcesRecords() bool { return r.native }

// Records returns vd's verbatim record stream (native schemas only).
func (r *Replay) Records(vd cluster.VDID) []trace.Record {
	if int(vd) >= len(r.recs) {
		return nil
	}
	return r.recs[vd]
}

// EventSampleEvery tells runners the thinning factor already applied at
// ingest, so metric rows re-scale to the full-trace rates (see
// ebs.Options.EventSampleEvery).
func (r *Replay) EventSampleEvery() int { return r.cfg.SampleEvery }

// SeriesInto returns the demand series derived from the ingested events,
// scaled back up by the ingest sampling factor so the throttle replays
// against the estimated full-trace offered load.
func (r *Replay) SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample {
	if cap(buf) < durSec {
		buf = make([]workload.Sample, durSec)
	}
	out := buf[:durSec]
	for i := range out {
		out[i] = workload.Sample{}
	}
	if int(vd) < len(r.series) {
		src := r.series[vd]
		for t := 0; t < len(src) && t < durSec; t++ {
			out[t] = src[t]
		}
	}
	return out
}

// GenEvents replays vd's normalised events that fall inside the run window.
// Ingest-time sampling is the stream's thinning, so sampleEvery is ignored
// (runners learn the ingest factor via EventSampleEvery); boost is ignored
// too — a replayed trace is verbatim history, chaos storms cannot inflate
// it.
func (r *Replay) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(sec int) float64, emit func(workload.Event)) {
	if int(vd) >= len(r.events) {
		return
	}
	limitUS := int64(len(series)) * 1_000_000
	for _, ev := range r.events[vd] {
		if ev.TimeUS < limitUS {
			emit(ev)
		}
	}
}

// Ingest streams a trace from rd and normalises it into f's address space.
// It is the replay scenario's core, exported for benchmarks and fuzzing;
// Bind calls it on the configured file.
func (c ReplayConfig) Ingest(rd io.Reader, f *workload.Fleet) (*Replay, error) {
	if err := c.validateShape(); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(rd, 64<<10)
	schema := c.Schema
	if schema == SchemaAuto {
		var err error
		if schema, err = sniffSchema(br); err != nil {
			return nil, err
		}
	}
	r := &Replay{
		spec:  Spec{Name: "replay"},
		cfg:   c,
		fleet: f,
		stats: ReplayStats{Schema: schema},
	}
	nVDs := len(f.Topology.VDs)
	var err error
	switch schema {
	case SchemaNativeJSONL, SchemaNativeCSV:
		r.native = true
		r.recs = make([][]trace.Record, nVDs)
		err = r.ingestNative(br, schema)
	case SchemaMSR, SchemaTianchi:
		r.events = make([][]workload.Event, nVDs)
		r.series = make([][]workload.Sample, nVDs)
		err = r.ingestForeign(br, schema)
	default:
		err = fmt.Errorf("scenario: replay schema %q not ingestable", schema)
	}
	if err != nil {
		return nil, err
	}
	if r.stats.Kept == 0 {
		return nil, fmt.Errorf("scenario: replay: no records survived ingest (%d parsed, sample=%d) — nothing to simulate",
			r.stats.Records, c.SampleEvery)
	}
	return r, nil
}

// sniffSchema inspects the buffered input's first line without consuming it.
func sniffSchema(br *bufio.Reader) (string, error) {
	peek, err := br.Peek(64 << 10)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return "", fmt.Errorf("scenario: replay sniff: %w", err)
	}
	line := string(peek)
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return "", fmt.Errorf("scenario: replay: empty input, cannot sniff a schema")
	}
	if line[0] == '{' {
		return SchemaNativeJSONL, nil
	}
	fields := strings.Split(line, ",")
	switch {
	case len(fields) == 19 && fields[0] == "trace_id":
		return SchemaNativeCSV, nil
	case len(fields) == 7:
		return SchemaMSR, nil
	case len(fields) == 5:
		return SchemaTianchi, nil
	}
	return "", fmt.Errorf("scenario: replay: cannot sniff schema from a %d-column first line; pass schema=", len(fields))
}

// keep is the deterministic ingest sampler: a pure hash of the record
// ordinal, independent of worker count and target fleet.
func (c ReplayConfig) keepOrdinal(ord uint64) bool {
	return c.SampleEvery <= 1 || xrand.Mix(ord)%uint64(c.SampleEvery) == 0
}

// ingestNative reads the repo's own trace codecs and validates every record
// against the bound topology — a native replay only makes sense against the
// fleet recipe that produced the trace, and out-of-range identifiers would
// otherwise crash the engine's placement lookups.
func (r *Replay) ingestNative(rd io.Reader, schema string) error {
	var recs []trace.Record
	var err error
	if schema == SchemaNativeJSONL {
		recs, err = trace.ReadTraceJSONL(rd)
	} else {
		recs, err = trace.ReadTraceCSV(rd)
	}
	if err != nil {
		return fmt.Errorf("scenario: replay: %w", err)
	}
	top := r.fleet.Topology
	for i := range recs {
		rec := &recs[i]
		r.stats.Records++
		if !r.cfg.keepOrdinal(uint64(i)) {
			continue
		}
		if int(rec.VD) >= len(top.VDs) || rec.VD < 0 {
			return fmt.Errorf("scenario: replay record %d: VD %d outside the bound fleet's %d disks (native replay needs the generating fleet recipe)", i+1, rec.VD, len(top.VDs))
		}
		if int(rec.QP) >= len(top.QPs) || rec.QP < 0 {
			return fmt.Errorf("scenario: replay record %d: QP %d outside the bound fleet's %d queue pairs", i+1, rec.QP, len(top.QPs))
		}
		if int(rec.Storage) >= len(top.StorageNodes) || rec.Storage < 0 {
			return fmt.Errorf("scenario: replay record %d: storage node %d outside the bound fleet's %d", i+1, rec.Storage, len(top.StorageNodes))
		}
		if int(rec.Segment) >= len(top.Segments) || rec.Segment < 0 {
			return fmt.Errorf("scenario: replay record %d: segment %d outside the bound fleet's %d", i+1, rec.Segment, len(top.Segments))
		}
		if r.stats.Kept >= maxReplayEvents {
			return fmt.Errorf("scenario: replay retains more than %d records; raise sample=", maxReplayEvents)
		}
		r.stats.Kept++
		r.recs[rec.VD] = append(r.recs[rec.VD], *rec)
	}
	return nil
}

// foreignRecord is one normalised foreign-trace row before fleet mapping.
type foreignRecord struct {
	ts     int64 // native units (FILETIME ticks or µs)
	device string
	op     trace.Op
	offset int64
	size   int64
}

// ingestForeign streams an MSR or tianchi CSV, normalising each record into
// an event on a hash-mapped fleet VD, and derives per-VD per-second demand
// series for the throttle replay.
func (r *Replay) ingestForeign(rd io.Reader, schema string) error {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1

	wantCols := 7
	tickPerUS := 10.0 // MSR FILETIME: 100ns ticks
	if schema == SchemaTianchi {
		wantCols = 5
		tickPerUS = 1.0
	}
	var (
		ord   uint64
		t0    int64
		first = true
	)
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("scenario: replay line %d: %w", line, err)
		}
		if len(row) != wantCols {
			return fmt.Errorf("scenario: replay line %d: %d columns, %s wants %d", line, len(row), schema, wantCols)
		}
		fr, header, err := parseForeign(row, schema)
		if err != nil {
			if line == 1 && header {
				continue // a header row is only tolerated as the first line
			}
			return fmt.Errorf("scenario: replay line %d: %w", line, err)
		}
		r.stats.Records++
		if first {
			t0 = fr.ts
			first = false
		}
		o := ord
		ord++
		if !r.cfg.keepOrdinal(o) {
			continue
		}
		if r.stats.Kept >= maxReplayEvents {
			return fmt.Errorf("scenario: replay retains more than %d records; raise sample=", maxReplayEvents)
		}
		r.addForeign(fr, t0, tickPerUS, o)
	}
}

// parseForeign decodes one CSV row. The header flag reports whether the row
// looks like a column header (tolerated as line 1 only).
func parseForeign(row []string, schema string) (foreignRecord, bool, error) {
	var fr foreignRecord
	var tsCol, opCol, offCol, szCol int
	if schema == SchemaMSR {
		tsCol, opCol, offCol, szCol = 0, 3, 4, 5
		fr.device = row[1] + "." + row[2]
	} else {
		tsCol, opCol, offCol, szCol = 4, 1, 2, 3
		fr.device = row[0]
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(row[tsCol]), 10, 64)
	if err != nil {
		return fr, true, fmt.Errorf("timestamp %q: want an integer", row[tsCol])
	}
	if ts < 0 {
		return fr, false, fmt.Errorf("timestamp %d is negative", ts)
	}
	fr.ts = ts
	switch op := strings.TrimSpace(row[opCol]); op {
	case "R", "r", "Read", "read", "READ":
		fr.op = trace.OpRead
	case "W", "w", "Write", "write", "WRITE":
		fr.op = trace.OpWrite
	default:
		return fr, true, fmt.Errorf("opcode %q: want read or write", op)
	}
	if fr.offset, err = strconv.ParseInt(strings.TrimSpace(row[offCol]), 10, 64); err != nil {
		return fr, false, fmt.Errorf("offset %q: want an integer", row[offCol])
	}
	if fr.offset < 0 {
		return fr, false, fmt.Errorf("offset %d is negative", fr.offset)
	}
	if fr.size, err = strconv.ParseInt(strings.TrimSpace(row[szCol]), 10, 64); err != nil {
		return fr, false, fmt.Errorf("size %q: want an integer", row[szCol])
	}
	if fr.size <= 0 {
		return fr, false, fmt.Errorf("size %d, want > 0", fr.size)
	}
	return fr, false, nil
}

// addForeign maps one kept foreign record onto the fleet: device to VD by
// stable hash, timestamp rebased and scaled, size and offset fitted to the
// target disk, queue pair by seed-derived ordinal hash.
func (r *Replay) addForeign(fr foreignRecord, t0 int64, tickPerUS float64, ord uint64) {
	top := r.fleet.Topology
	h := fnv.New64a()
	h.Write([]byte(fr.device)) //nolint:errcheck — fnv never fails
	vd := cluster.VDID(h.Sum64() % uint64(len(top.VDs)))
	d := &top.VDs[vd]

	us := int64(float64(fr.ts-t0) / tickPerUS * r.cfg.TimeScale)
	if us < 0 {
		us = 0
		r.stats.Reordered++
	}

	size := (fr.size + sectorSize - 1) &^ (sectorSize - 1)
	if size > 4<<20 {
		size = 4 << 20
	}
	if size != fr.size {
		r.stats.Clamped++
	}
	offset := alignDown(fr.offset)
	if span := d.Capacity - size; offset > span {
		offset = alignDown(offset % (span + 1))
		r.stats.Clamped++
	}
	qp := d.QPs[uint64(subSeed(r.fleet.Cfg.Seed, tagReplayPick, ord))%uint64(len(d.QPs))]

	ev := workload.Event{TimeUS: us, Op: fr.op, Size: int32(size), Offset: offset, QP: qp}
	r.events[vd] = append(r.events[vd], ev)
	r.stats.Kept++

	// Per-second demand, re-inflated by the sampling factor so the throttle
	// sees the estimated full-trace offered load.
	sec := int(us / 1_000_000)
	for len(r.series[vd]) <= sec {
		r.series[vd] = append(r.series[vd], workload.Sample{})
	}
	s := &r.series[vd][sec]
	scale := float64(r.cfg.SampleEvery)
	if ev.Op == trace.OpRead {
		s.ReadBps += float64(size) * scale
		s.ReadIOPS += scale
	} else {
		s.WriteBps += float64(size) * scale
		s.WriteIOPS += scale
	}
}
