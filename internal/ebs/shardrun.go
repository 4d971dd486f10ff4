package ebs

import (
	"context"
	"fmt"
	"sort"

	"ebslab/internal/chaos"
	"ebslab/internal/diting"
	"ebslab/internal/invariant"
	"ebslab/internal/par"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

// ShardPartial is the result of simulating one VD-disjoint shard [Lo, Hi) of
// the fleet: exactly what a fabric worker ships back to the coordinator.
// Metric rows are UNSCALED (event-thinning compensation is applied once, at
// the merge), records carry shard-local trace IDs (the merge reassigns the
// canonical 1..N numbering), and the sketch set — when streaming — is the
// shard's own partial state. Because shards own disjoint virtual disks,
// MergeShards over any covering set of partials reproduces the single-process
// dataset byte for byte.
type ShardPartial struct {
	Lo, Hi  int
	Records []trace.Record
	Compute []trace.MetricRow
	Storage []trace.MetricRow
	// Sketch is non-nil iff the run streams (Options.Stream was set).
	Sketch *sketch.Set
	// Chaos holds the shard's fault accounting (IO-level counters only; the
	// schedule-level window counts are coordinator-side).
	Chaos chaos.Stats
	// Emission is the per-VD workload-layer accounting for VDs [Lo, Hi),
	// present only in check mode.
	Emission []invariant.VDEmission
	// Audit holds the shard's throttle-audit findings, check mode only.
	Audit []string
}

// streamConfigFor derives the per-shard sketch configuration from the
// destination set, filling the thinning scale and the fleet throughput-cap
// sum (the RAR denominator) from the run's shape. nVDs is the run's global
// disk count: every shard derives the same configuration regardless of which
// slice of the fleet it executes, which is what keeps shard sketch state
// mergeable. Call only after opts.withDefaults.
func (s *Sim) streamConfigFor(opts Options, nVDs int) sketch.Config {
	cfg := opts.Stream.Config()
	cfg.Scale = float64(opts.EventSampleEvery)
	if cfg.DurationSec == 0 {
		cfg.DurationSec = opts.DurationSec
	}
	if cfg.TputCapSum == 0 {
		for i := 0; i < nVDs; i++ {
			cfg.TputCapSum += s.fleet.Topology.VDs[i].ThroughputCap
		}
	}
	return cfg
}

// runVDs bounds the run to the first MaxVDs disks. Call only after
// opts.withDefaults.
func (s *Sim) runVDs(opts Options) int {
	nVDs := len(s.fleet.Topology.VDs)
	if opts.MaxVDs > 0 && opts.MaxVDs < nVDs {
		nVDs = opts.MaxVDs
	}
	return nVDs
}

// assembleDataset builds the run's dataset from the fully merged tracer:
// scaled metric rows plus the fleet's (shared, read-only) VD/VM spec
// tables. This is the single place dataset assembly happens, shared by the
// in-process engine and the distributed merge, so the two paths cannot
// drift. The tracer's records are detached into the dataset and the tracer
// is released back to its pool.
func (s *Sim) assembleDataset(opts Options, merged *diting.Tracer) *trace.Dataset {
	vdSpecs, vmSpecs := s.specs()
	ds := &trace.Dataset{
		Topology:    s.fleet.Topology,
		Seg2BS:      s.fleet.Seg2BS,
		DurationSec: opts.DurationSec,
		Trace:       merged.DetachRecords(),
		Compute:     scaleRows(merged.ComputeRows(), float64(opts.EventSampleEvery)),
		Storage:     scaleRows(merged.StorageRows(), float64(opts.EventSampleEvery)),
		VDSpecs:     vdSpecs,
		VMSpecs:     vmSpecs,
	}
	merged.Release()
	return ds
}

// RunShard simulates virtual disks [lo, hi) of the run described by opts and
// returns the shard's unmerged partial. The shard observes the run's GLOBAL
// shape — chaos schedules expand against the whole fleet, sketch
// configuration sums every disk's throughput cap — so partials from any
// VD-disjoint covering of [0, nVDs) merge into the exact single-process
// dataset. Within the shard, disks are dealt across opts.Workers just like
// Run.
func (s *Sim) RunShard(ctx context.Context, opts Options, lo, hi int) (*ShardPartial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, err
	}
	if opts.Control != nil || opts.Observe != nil {
		return nil, fmt.Errorf("ebs: Control/Observe options are single-process only (the control loop is sequential over epochs); run the controlled study in-process")
	}
	if err := s.checkScenarioOptions(&opts); err != nil {
		return nil, err
	}
	nVDs := s.runVDs(opts)
	if lo < 0 || hi > nVDs || lo >= hi {
		return nil, fmt.Errorf("ebs: shard [%d,%d) outside run range [0,%d)", lo, hi, nVDs)
	}

	n := hi - lo
	workers := par.Workers(opts.Workers)
	if workers > n {
		workers = n
	}
	var streamCfg sketch.Config
	if opts.Stream != nil {
		streamCfg = s.streamConfigFor(opts, nVDs)
	}
	shards := s.newShards(workers, &opts, streamCfg)
	var emission *invariant.Emission
	if opts.Check {
		emission = invariant.NewEmission(len(s.fleet.Topology.VDs))
	}
	sched := s.expandChaos(opts)
	err = par.ForEachWorker(ctx, n, workers, func(worker, i int) error {
		return s.simulateVD(shards[worker], lo+i, &opts, emission, sched)
	})
	if err != nil {
		releaseShards(shards)
		return nil, err
	}

	merged := diting.Merge(opts.TraceSampleEvery, tracersOf(shards)...)
	p := &ShardPartial{
		Lo:      lo,
		Hi:      hi,
		Records: merged.DetachRecords(),
		Compute: merged.ComputeRows(),
		Storage: merged.StorageRows(),
	}
	merged.Release()
	if opts.Stream != nil {
		p.Sketch = sketch.NewSet(streamCfg)
		for _, sh := range shards {
			p.Sketch.Merge(sh.sketch)
		}
	}
	for _, sh := range shards {
		p.Chaos.Merge(sh.chaos)
		p.Audit = append(p.Audit, sh.audit...)
	}
	if emission != nil {
		p.Emission = append(p.Emission, emission.PerVD[lo:hi]...)
	}
	releaseShards(shards)
	return p, nil
}

// MergeShards deterministically combines shard partials into the run's final
// dataset. The partials must exactly cover [0, nVDs) without overlap — the
// at-most-once discipline upstream (fabric result accounting) guarantees
// this for distributed runs, and MergeShards re-verifies it. The merged
// dataset, streamed sketch state, chaos accounting, and check-mode verdict
// are byte-identical to a single-process Run with the same options.
func (s *Sim) MergeShards(opts Options, partials []*ShardPartial) (*trace.Dataset, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, err
	}
	if opts.Control != nil || opts.Observe != nil {
		return nil, fmt.Errorf("ebs: Control/Observe options are single-process only (the control loop is sequential over epochs); run the controlled study in-process")
	}
	nVDs := s.runVDs(opts)
	top := s.fleet.Topology

	parts := append([]*ShardPartial(nil), partials...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	next := 0
	for _, p := range parts {
		if p.Lo != next {
			return nil, fmt.Errorf("ebs: shard coverage gap or overlap at VD %d (next shard starts at %d)", next, p.Lo)
		}
		next = p.Hi
	}
	if next != nVDs {
		return nil, fmt.Errorf("ebs: shards cover [0,%d), run needs [0,%d)", next, nVDs)
	}

	// FromParts tracers alias the partials' slices; they are merged (which
	// copies) and must never be pooled or released.
	tracers := make([]*diting.Tracer, len(parts))
	for i, p := range parts {
		tracers[i] = diting.FromParts(opts.TraceSampleEvery, p.Records, p.Compute, p.Storage)
	}
	merged := diting.Merge(opts.TraceSampleEvery, tracers...)
	ds := s.assembleDataset(opts, merged)

	sched := s.expandChaos(opts)
	var streamCfg sketch.Config
	var sets []*sketch.Set
	if opts.Stream != nil {
		streamCfg = s.streamConfigFor(opts, nVDs)
		for _, p := range parts {
			if p.Sketch == nil {
				return nil, fmt.Errorf("ebs: shard [%d,%d) has no sketch state in a streaming run", p.Lo, p.Hi)
			}
			sets = append(sets, p.Sketch)
		}
	}
	var ioStats chaos.Stats
	var audits []string
	for _, p := range parts {
		ioStats.Merge(p.Chaos)
		audits = append(audits, p.Audit...)
	}
	var emission *invariant.Emission
	if opts.Check {
		emission = invariant.NewEmission(len(top.VDs))
		for _, p := range parts {
			if len(p.Emission) != p.Hi-p.Lo {
				return nil, fmt.Errorf("ebs: shard [%d,%d) carries %d emission slots in a checked run", p.Lo, p.Hi, len(p.Emission))
			}
			copy(emission.PerVD[p.Lo:p.Hi], p.Emission)
		}
	}
	if err := s.runTail(opts, ds, sched, streamCfg, sets, ioStats, emission, audits); err != nil {
		return nil, err
	}
	return ds, nil
}
