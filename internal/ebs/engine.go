package ebs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/diting"
	"ebslab/internal/invariant"
	"ebslab/internal/latency"
	"ebslab/internal/par"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// vdIDBase spaces per-VD trace-ID streams far enough apart that no stream
// can run into the next one: 2^40 IOs per disk is ~34 years of traffic at
// the generator's 2^20 events/s cap.
func vdIDBase(vd cluster.VDID) uint64 { return (uint64(vd) + 1) << 40 }

// shard is the per-worker simulation state: its own pooled tracer (the
// tracer is not safe for concurrent use), its columnar record batch, and
// every scratch buffer the per-VD replay needs, so steady-state simulation
// allocates nothing. In check mode each shard also accumulates its
// throttle-audit findings; under chaos it accumulates its fault counters
// (summed after the pool drains, so the totals are worker-count
// independent).
type shard struct {
	tracer *diting.Tracer
	sketch *sketch.Set // nil unless Options.Stream is set
	batch  *trace.Batch

	// snap is the current virtual disk's sketch delta, present only when
	// Options.Snapshots is set: it receives the same batches as the shard's
	// cumulative set and is folded into the sink when the disk completes.
	snap    *sketch.Set
	snapCfg sketch.Config
	sink    *SnapshotSink

	// em is the per-VD fill state behind emitFn; emitFn is bound once per
	// shard so the event generator callback costs no per-VD closure.
	em     vdEmitter
	emitFn func(workload.Event)

	series []workload.Sample
	delay  []float64 // scenario DelayModel scratch
	demand []throttle.Demand
	caps   [1]throttle.Caps
	group  [1][]throttle.Demand
	th     throttle.Scratch

	// obs is this shard's slice of the run's control-plane observation
	// (present only when Options.Observe is set); per-shard instances are
	// merged after the pool drains, commutatively, so the merged counters
	// are worker-count invariant.
	obs *control.Observation

	audit []string
	chaos chaos.Stats
}

// flush drains the shard's batch into the tracer and (when streaming) the
// sketch set, in that order — the same tracer-then-sketch sequence the
// record-at-a-time path observed per IO.
func (sh *shard) flush() {
	if sh.batch.Len() == 0 {
		return
	}
	sh.tracer.EmitBatch(sh.batch)
	if sh.sketch != nil {
		sh.sketch.ObserveBatch(sh.batch)
	}
	if sh.snap != nil {
		sh.snap.ObserveBatch(sh.batch)
	}
	if sh.obs != nil {
		sh.obs.ObserveBatch(sh.batch)
	}
	sh.batch.Reset()
}

// newShards builds the per-worker shard states for one run.
func (s *Sim) newShards(workers int, opts *Options, streamCfg sketch.Config) []*shard {
	shards := make([]*shard, workers)
	for i := range shards {
		sh := &shard{
			tracer: diting.Acquire(opts.TraceSampleEvery),
			batch:  trace.GetBatch(trace.DefaultBatchCap),
		}
		sh.emitFn = sh.em.emit
		if opts.Stream != nil {
			sh.sketch = sketch.NewSet(streamCfg)
		}
		if opts.Snapshots != nil {
			sh.sink = opts.Snapshots
			sh.snapCfg = streamCfg
		}
		if opts.Observe != nil {
			sh.obs = control.NewObservation(opts.Observe.Shape)
		}
		shards[i] = sh
	}
	return shards
}

// releaseShards returns the shards' pooled tracers and batches. Callers
// must have copied or detached everything they keep (Merge copies).
func releaseShards(shards []*shard) {
	for _, sh := range shards {
		sh.tracer.Release()
		sh.batch.Release()
	}
}

// Run simulates the fleet's IO for the window across a bounded worker pool
// and returns the collected datasets. It is the canonical entry point;
// every other runner (RunShard, the fabric worker) shares its batch
// pipeline. Virtual disks are independent by construction — per-VD series,
// event, and latency streams are all derived from (seed, VD) — so disks are
// dealt to workers dynamically and shard outputs are merged
// deterministically afterwards: the result is byte-identical for every
// Workers value.
//
// Cancellation is checked between virtual disks; on cancellation the
// partial work is discarded and ctx's error is returned. A nil ctx is
// treated as context.Background().
func (s *Sim) Run(ctx context.Context, opts Options) (*trace.Dataset, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, err
	}
	top := s.fleet.Topology
	if err := s.checkControlOptions(&opts); err != nil {
		return nil, err
	}
	if err := s.checkScenarioOptions(&opts); err != nil {
		return nil, err
	}
	nVDs := s.runVDs(opts)

	workers := poolSize(opts, nVDs)
	var streamCfg sketch.Config
	if opts.Stream != nil {
		streamCfg = s.streamConfigFor(opts, nVDs)
	}
	shards := s.newShards(workers, &opts, streamCfg)
	// Check mode counts every emitted IO at the source. Shards own disjoint
	// virtual disks, so per-VD slots have a single writer and the shared
	// Emission needs no locking.
	var emission *invariant.Emission
	if opts.Check {
		emission = invariant.NewEmission(len(top.VDs))
	}
	// Expand the fault plan once, before the pool: the schedule is a pure
	// function of (seed, plan, shape), read-only while workers run.
	sched := s.expandChaos(opts)
	var (
		done      atomic.Int64
		progressM sync.Mutex
	)
	err = par.ForEachWorker(ctx, nVDs, workers, func(worker, vdIdx int) error {
		if err := s.simulateVD(shards[worker], vdIdx, &opts, emission, sched); err != nil {
			return err
		}
		if opts.Progress != nil {
			n := int(done.Add(1))
			progressM.Lock()
			opts.Progress(n, nVDs)
			progressM.Unlock()
		}
		return nil
	})
	if err != nil {
		releaseShards(shards)
		return nil, err
	}

	if opts.Observe != nil {
		for _, sh := range shards {
			if err := opts.Observe.Merge(sh.obs); err != nil {
				releaseShards(shards)
				return nil, err
			}
		}
	}
	merged := diting.Merge(opts.TraceSampleEvery, tracersOf(shards)...)
	ds := s.assembleDataset(opts, merged)
	var sets []*sketch.Set
	if opts.Stream != nil {
		sets = make([]*sketch.Set, len(shards))
		for i, sh := range shards {
			sets[i] = sh.sketch
		}
	}
	var ioStats chaos.Stats
	var audits []string
	for _, sh := range shards {
		ioStats.Merge(sh.chaos)
		audits = append(audits, sh.audit...)
	}
	releaseShards(shards)
	if err := s.runTail(opts, ds, sched, streamCfg, sets, ioStats, emission, audits); err != nil {
		return nil, err
	}
	return ds, nil
}

// poolSize is the worker count of a run over nVDs disks: Options.Workers
// (0 = one per CPU), never more than there are disks.
func poolSize(opts Options, nVDs int) int {
	workers := par.Workers(opts.Workers)
	if workers > nVDs && nVDs > 0 {
		workers = nVDs
	}
	return workers
}

// runTail is the post-merge finalization shared by Run and MergeShards:
// publish the merged sketch state, publish chaos accounting, and run the
// check-mode verification suite.
func (s *Sim) runTail(opts Options, ds *trace.Dataset, sched *chaos.Schedule, streamCfg sketch.Config, sets []*sketch.Set, ioStats chaos.Stats, emission *invariant.Emission, audits []string) error {
	// Merge the per-shard sketch sets into the caller's destination. Shards
	// own disjoint virtual disks, so Set.Merge is exactly commutative here
	// and the merged state is worker-count invariant.
	var shardTotals []sketch.Totals
	if opts.Stream != nil {
		mergedSketch := sketch.NewSet(streamCfg)
		for _, set := range sets {
			shardTotals = append(shardTotals, set.Totals())
			mergedSketch.Merge(set)
		}
		*opts.Stream = *mergedSketch
	}
	if sched != nil && opts.ChaosStats != nil {
		st := chaos.Stats{CrashWindows: len(sched.Crashes), StormWindows: len(sched.Storms)}
		st.Merge(ioStats)
		*opts.ChaosStats = st
	}
	if opts.Check {
		rep := invariant.VerifyRun(&invariant.Artifacts{
			Fleet:            s.fleet,
			Dataset:          ds,
			Emission:         emission,
			EventSampleEvery: opts.EventSampleEvery,
			TraceSampleEvery: opts.TraceSampleEvery,
			Control:          opts.Control,
		})
		rep.AddAll("throttle/grants", audits)
		if sched != nil {
			invariant.CheckChaosSchedule(rep, opts.Chaos, opts.Seed, sched)
		}
		if opts.Stream != nil {
			invariant.CheckSketchConservation(rep, opts.Stream, shardTotals, emission)
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("ebs: check mode: %w", err)
		}
	}
	return nil
}

// expandChaos expands the run's fault plan against the fleet shape, or
// returns nil when the run has none.
func (s *Sim) expandChaos(opts Options) *chaos.Schedule {
	if opts.Chaos == nil {
		return nil
	}
	top := s.fleet.Topology
	return opts.Chaos.Expand(opts.Seed, chaos.Shape{
		BSs: len(top.StorageNodes), VDs: len(top.VDs), DurSec: opts.DurationSec,
	})
}

// vdEmitter is the batch-fill state of the virtual disk a shard is
// currently replaying. One vdEmitter lives in each shard and is overwritten
// per disk; its emit method is the event generator's callback, appending
// one columnar row per IO and flushing the shard's batch as it fills.
type vdEmitter struct {
	sh         *shard
	top        *cluster.Topology
	seg2bs     *cluster.SegmentMap
	wtOf       []int8
	table      *latency.Table
	rng        *xrand.Rand
	emission   *invariant.Emission
	sched      *chaos.Schedule
	boost      func(sec int) float64
	queueDelay []float64
	// extraDelay is a scenario DelayModel's per-second latency term in µs,
	// landing on extraStage (nil when the run's scenario models no delay).
	extraDelay []float64
	extraStage trace.Stage
	ctl        *control.Timeline // nil unless the run applies a control timeline

	vdID cluster.VDID
	dc   cluster.DCID
	node cluster.NodeID
	user cluster.UserID
	vm   cluster.VMID

	genErr error
}

// emit appends one generated IO to the shard's batch: placement lookup,
// latency sampling from the disk-derived RNG stream, chaos penalties, and
// throttle queue delay, exactly as the record-at-a-time path applied them.
func (e *vdEmitter) emit(ev workload.Event) {
	if e.genErr != nil {
		return
	}
	if e.emission != nil {
		e.emission.Add(e.vdID, ev.Op, ev.Size)
	}
	seg := e.top.SegmentOfOffset(e.vdID, ev.Offset)
	sn := e.seg2bs.BSOf(seg)
	if sn < 0 {
		e.genErr = fmt.Errorf("ebs: segment %d unplaced", seg)
		return
	}
	sec := int(ev.TimeUS / 1_000_000)
	wt := e.wtOf[ev.QP]
	// Control-plane actuation: the timeline's epoch rows override the
	// segment's BS (migrations already landed) and the QP's worker thread
	// (rebinds), via pure lookups — no RNG draw, so the generated stream is
	// identical to an uncontrolled run's.
	var ctlEpoch int
	if e.ctl != nil {
		ctlEpoch = e.ctl.EpochOf(sec)
		if row := e.ctl.BSRow(ctlEpoch); row != nil {
			sn = row[seg]
		}
		if row := e.ctl.WTRow(ctlEpoch); row != nil {
			wt = row[ev.QP]
		}
	}
	sh := e.sh
	b := sh.batch
	if b.Full() {
		sh.flush()
	}
	i := b.Next()
	b.TraceID[i] = sh.tracer.NextTraceID()
	b.TimeUS[i] = ev.TimeUS
	b.Op[i] = ev.Op
	b.Size[i] = ev.Size
	b.Offset[i] = ev.Offset
	b.DC[i] = e.dc
	b.Node[i] = e.node
	b.User[i] = e.user
	b.VM[i] = e.vm
	b.VD[i] = e.vdID
	b.QP[i] = ev.QP
	b.WT[i] = wt
	b.Storage[i] = sn
	b.Segment[i] = seg
	e.table.SampleInto(e.rng.Rand, ev.Op, ev.Size, &b.Lat[i])
	if e.ctl != nil && e.ctl.MovedAt(ctlEpoch, int(seg)) {
		// The segment is landing on its new BS this epoch: data movement
		// competes with foreground traffic on the backend network.
		b.Lat[i][trace.StageBackendNet] += float32(e.ctl.PenaltyUS)
	}
	if e.sched != nil {
		if e.sched.BSDownAt(int(sn), sec) {
			sh.chaos.FaultedIOs++
			if e.sched.PenaltyUS > 0 {
				b.Lat[i][trace.StageFrontendNet] += float32(e.sched.PenaltyUS)
			}
		}
		if e.boost != nil && e.boost(sec) != 1 {
			sh.chaos.StormIOs++
		}
	}
	if e.queueDelay != nil {
		if sec < len(e.queueDelay) && e.queueDelay[sec] > 0 {
			b.Lat[i][trace.StageComputeNode] += float32(e.queueDelay[sec] * 1e6)
		}
	}
	if e.extraDelay != nil {
		if sec < len(e.extraDelay) && e.extraDelay[sec] > 0 {
			b.Lat[i][e.extraStage] += float32(e.extraDelay[sec])
		}
	}
}

// vdTraffic is one virtual disk's generated traffic: its per-second demand
// series (the run's scenario's, else the fleet's native one), the chaos
// storm boost over it, and the event generator that expands the two into
// IOs. Run and the traffic-only observe pass both take their stream from
// here, so the traffic they see is one definition.
type vdTraffic struct {
	series []workload.Sample
	boost  func(sec int) float64 // nil outside storms

	s    *Sim
	opts *Options
	vd   cluster.VDID
}

// trafficOf builds vd's series into buf (reused scratch) and its storm boost
// under sched (nil = no chaos plan).
func (s *Sim) trafficOf(buf []workload.Sample, vd cluster.VDID, opts *Options, sched *chaos.Schedule) vdTraffic {
	t := vdTraffic{s: s, opts: opts, vd: vd}
	if sched != nil {
		t.boost = sched.VDStormFn(int(vd))
	}
	if sc := opts.Scenario; sc != nil {
		t.series = sc.SeriesInto(buf, vd, opts.DurationSec)
	} else {
		t.series = s.fleet.VDSeriesInto(buf, vd, opts.DurationSec)
	}
	return t
}

// generate runs the disk's event generator over the series, calling emit
// once per generated IO in time order.
func (t *vdTraffic) generate(emit func(workload.Event)) {
	if sc := t.opts.Scenario; sc != nil {
		sc.GenEvents(t.vd, t.series, t.opts.EventSampleEvery, t.boost, emit)
	} else {
		t.s.fleet.GenEventsBoostedOver(t.vd, t.series, t.opts.EventSampleEvery, t.boost, emit)
	}
}

// simulateVD replays one virtual disk's window into the shard's batch
// pipeline: throttle replay for queue delay, event generation over the
// shared traffic series, per-stage latency sampling from the disk-derived
// RNG stream. Under a chaos schedule, storm windows boost the disk's
// offered demand (throttle and generator alike) and crash windows tax IOs
// bound for the dead BlockServer.
func (s *Sim) simulateVD(sh *shard, vdIdx int, opts *Options, emission *invariant.Emission, sched *chaos.Schedule) error {
	top := s.fleet.Topology
	vdID := cluster.VDID(vdIdx)
	vd := &top.VDs[vdIdx]
	vm := &top.VMs[vd.VM]
	node := &top.Nodes[vm.Node]

	// A record-sourced replay scenario short-circuits the generative path:
	// the records are the traffic, verbatim.
	sc := opts.Scenario
	if rs, ok := sc.(scenario.RecordSource); ok && rs.SourcesRecords() {
		return s.replayVD(sh, vdID, opts, emission, sched, rs)
	}

	// One traffic series feeds both the throttle replay and the event
	// generator (their RNG streams are independent, so sharing the series
	// changes no draw).
	tr := s.trafficOf(sh.series, vdID, opts, sched)
	sh.series = tr.series
	boost := tr.boost

	// Per-VD throttle replay over the second-granularity series gives
	// each second's queue delay.
	var queueDelay []float64
	if !opts.DisableThrottle {
		sh.demand = sh.demand[:0]
		for t, smp := range sh.series {
			b := 1.0
			if boost != nil {
				b = boost(t)
			}
			sh.demand = append(sh.demand, throttle.Demand{
				ReadBps: b * smp.ReadBps, WriteBps: b * smp.WriteBps,
				ReadIOPS: b * smp.ReadIOPS, WriteIOPS: b * smp.WriteIOPS,
			})
		}
		sh.caps[0] = throttle.Caps{Tput: vd.ThroughputCap, IOPS: vd.IOPSCap}
		sh.group[0] = sh.demand
		// A VD carrying control-plane lending deltas or a scenario cap
		// schedule replays against scheduled caps; every other VD takes the
		// plain path, so the arithmetic (and the dataset) is untouched for
		// them. Scheduled caps compose in order: a scenario CapScheduler
		// rewrites the second's base caps, then the control plane's lending
		// deltas apply on top.
		var capsAt func(t int, eff []throttle.Caps)
		capSch, _ := sc.(scenario.CapScheduler)
		var lend func(t int, eff []throttle.Caps)
		if opts.Control != nil && opts.Control.VDLends(vdIdx) {
			lend = lendCapsAt(opts.Control, vdIdx)
		}
		if capSch != nil || lend != nil {
			base := sh.caps[0]
			capsAt = func(t int, eff []throttle.Caps) {
				if capSch != nil {
					eff[0] = capSch.CapsAt(vdID, base, t)
				}
				if lend != nil {
					lend(t, eff)
				}
			}
		}
		res, msgs := sh.th.Simulate(sh.caps[:], sh.group[:], capsAt, opts.Check)
		for _, m := range msgs {
			sh.audit = append(sh.audit, fmt.Sprintf("VD %d: %s", vdID, m))
		}
		queueDelay = res.QueueDelaySec[0]
	}

	// A scenario delay model turns the demand series into a per-second
	// latency term on its chosen stage (e.g. bufferbloat's device queue).
	var extraDelay []float64
	var extraStage trace.Stage
	if dm, ok := sc.(scenario.DelayModel); ok {
		sh.delay, extraStage = dm.DelaySeries(sh.delay, vdID, sh.series)
		extraDelay = sh.delay
	}

	rng := xrand.Get(latencySeed(opts.Seed, vdID))
	defer rng.Release()
	sh.tracer.StartStream(vdIDBase(vdID))
	if sh.sink != nil {
		sh.snap = sketch.NewSet(sh.snapCfg)
	}

	sh.em = vdEmitter{
		sh:         sh,
		top:        top,
		seg2bs:     s.fleet.Seg2BS,
		wtOf:       s.wtOf,
		table:      s.table,
		rng:        rng,
		emission:   emission,
		sched:      sched,
		boost:      boost,
		queueDelay: queueDelay,
		extraDelay: extraDelay,
		extraStage: extraStage,
		ctl:        opts.Control,
		vdID:       vdID,
		dc:         node.DC,
		node:       node.ID,
		user:       vm.User,
		vm:         vm.ID,
	}
	tr.generate(sh.emitFn)
	sh.flush()
	if sh.sink != nil {
		// The disk is complete: hand its delta to the sink (which consumes
		// it) so concurrent snapshot readers see whole-disk increments only.
		sh.sink.fold(sh.snap, sh.snapCfg)
		sh.snap = nil
	}
	return sh.em.genErr
}

// replayVD streams one virtual disk's verbatim records (a record-sourced
// replay scenario) through the shard's batch pipeline. Placement, worker
// thread, and latencies come from the records themselves; the engine only
// renumbers trace IDs on the disk-derived stream (so sampling stays
// worker-count invariant), counts emission for check mode, and applies chaos
// crash penalties — storms cannot boost verbatim history, and the throttle's
// queue delay is already baked into the measured latencies.
func (s *Sim) replayVD(sh *shard, vdID cluster.VDID, opts *Options, emission *invariant.Emission, sched *chaos.Schedule, rs scenario.RecordSource) error {
	sh.tracer.StartStream(vdIDBase(vdID))
	if sh.sink != nil {
		sh.snap = sketch.NewSet(sh.snapCfg)
	}
	limitUS := int64(opts.DurationSec) * 1_000_000
	for _, r := range rs.Records(vdID) {
		if r.TimeUS >= limitUS {
			continue
		}
		if emission != nil {
			emission.Add(vdID, r.Op, r.Size)
		}
		b := sh.batch
		if b.Full() {
			sh.flush()
			b = sh.batch
		}
		i := b.Next()
		b.TraceID[i] = sh.tracer.NextTraceID()
		b.TimeUS[i] = r.TimeUS
		b.Op[i] = r.Op
		b.Size[i] = r.Size
		b.Offset[i] = r.Offset
		b.DC[i] = r.DC
		b.Node[i] = r.Node
		b.User[i] = r.User
		b.VM[i] = r.VM
		b.VD[i] = r.VD
		b.QP[i] = r.QP
		b.WT[i] = r.WT
		b.Storage[i] = r.Storage
		b.Segment[i] = r.Segment
		b.Lat[i] = r.Latency
		if sched != nil && sched.BSDownAt(int(r.Storage), int(r.TimeUS/1_000_000)) {
			sh.chaos.FaultedIOs++
			if sched.PenaltyUS > 0 {
				b.Lat[i][trace.StageFrontendNet] += float32(sched.PenaltyUS)
			}
		}
	}
	sh.flush()
	if sh.sink != nil {
		sh.sink.fold(sh.snap, sh.snapCfg)
		sh.snap = nil
	}
	return nil
}

// tracersOf projects the shard slice to its tracers in shard order.
func tracersOf(shards []*shard) []*diting.Tracer {
	out := make([]*diting.Tracer, len(shards))
	for i, sh := range shards {
		out[i] = sh.tracer
	}
	return out
}
