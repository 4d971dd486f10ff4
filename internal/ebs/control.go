package ebs

import (
	"context"
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/par"
	"ebslab/internal/scenario"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// ObsShapeFor builds the control-plane observation shape for a run of this
// fleet: entity axes from the topology, window and thinning scale from the
// (validated, defaulted) options, epoch length from epochSec.
func (s *Sim) ObsShapeFor(opts Options, epochSec int) (control.ObsShape, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return control.ObsShape{}, err
	}
	top := s.fleet.Topology
	shape := control.ObsShape{
		EpochSec: epochSec,
		DurSec:   opts.DurationSec,
		Segments: len(top.Segments),
		VDs:      len(top.VDs),
		QPs:      len(top.QPs),
		WTs:      top.NumWTs(),
		WTBase:   make([]int, len(top.Nodes)),
		Scale:    float64(opts.EventSampleEvery),
	}
	base := 0
	for n := range top.Nodes {
		shape.WTBase[n] = base
		base += top.Nodes[n].WorkerNum
	}
	if err := shape.Validate(); err != nil {
		return control.ObsShape{}, err
	}
	return shape, nil
}

// ControlInput assembles the fleet-side planning context for control.BuildPlan:
// base placement and QP binding, per-VD caps, the VM and node maps, and — when
// the run has a chaos plan — the epoch-boundary down function derived from the
// expanded schedule (the controller sees a crash only once an epoch boundary
// passes with the BS down, exactly what a production watchdog polling at the
// control cadence would see).
func (s *Sim) ControlInput(opts Options, obs *control.Observation) (control.Input, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return control.Input{}, err
	}
	top := s.fleet.Topology
	in := control.Input{
		Obs:       obs,
		Placement: s.fleet.Seg2BS,
		Binding:   s.wtOf,
		Caps:      make([]throttle.Caps, len(top.VDs)),
		VMOfVD:    make([]int, len(top.VDs)),
		NodeOfQP:  make([]int, len(top.QPs)),
	}
	for i := range top.VDs {
		in.Caps[i] = throttle.Caps{Tput: top.VDs[i].ThroughputCap, IOPS: top.VDs[i].IOPSCap}
		in.VMOfVD[i] = int(top.VDs[i].VM)
	}
	for q := range top.QPs {
		in.NodeOfQP[q] = int(top.NodeOfQP(cluster.QPID(q)))
	}
	if sched := s.expandChaos(opts); sched != nil {
		epochSec := obs.Shape.EpochSec
		in.Down = func(ep, bs int) bool { return sched.BSDownAt(bs, ep*epochSec) }
	}
	return in, nil
}

// RunControlled executes the predict→act loop end to end: an observe pass
// over the seed fills an Observation, control.BuildPlan replays its epochs
// through the policy into a timeline, and an actuated pass re-runs the same
// seed with the timeline applied. A no-op policy returns a dataset
// byte-identical to s.Run(ctx, opts).
//
// The observe pass is traffic-only: it runs the same per-disk event
// generators as Run and folds their IOs into the Observation, but samples no
// latency, traces nothing, and assembles no dataset, so streaming,
// snapshots, chaos accounting, progress, and checking all belong to the
// actuated pass alone. Its Observation equals the one Run fills through
// Options.Observe. In check mode, the decision log and the timeline are
// additionally held to the actuation conservation laws before the actuated
// pass runs.
func (s *Sim) RunControlled(ctx context.Context, opts Options, pol control.Policy, cfg control.Config) (*trace.Dataset, *control.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Control != nil || opts.Observe != nil {
		return nil, nil, fmt.Errorf("ebs: RunControlled builds its own Control/Observe options; leave both nil")
	}
	if rs, ok := opts.Scenario.(scenario.RecordSource); ok && rs.SourcesRecords() {
		// Even an empty plan would be a lie here: the predict->act premise
		// needs re-simulatable traffic, and verbatim records replay their
		// measured latencies no matter what the controller decides.
		return nil, nil, fmt.Errorf("ebs: scenario %q replays verbatim records; the control plane cannot actuate over measured latencies (foreign-schema replays can)", opts.Scenario.Name())
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, nil, err
	}
	if cfg.EpochSec <= 0 {
		cfg.EpochSec = 30
	}
	shape, err := s.ObsShapeFor(opts, cfg.EpochSec)
	if err != nil {
		return nil, nil, err
	}

	obs := control.NewObservation(shape)
	if err := s.observeTraffic(ctx, opts, obs); err != nil {
		return nil, nil, fmt.Errorf("ebs: observe pass: %w", err)
	}

	in, err := s.ControlInput(opts, obs)
	if err != nil {
		return nil, nil, err
	}
	plan, err := control.BuildPlan(pol, cfg, in)
	if err != nil {
		return nil, nil, err
	}
	if opts.Check {
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, in.Placement, in.Binding, in.Caps)
		if err := rep.Err(); err != nil {
			return nil, nil, fmt.Errorf("ebs: control plan: %w", err)
		}
	}

	actOpts := opts
	actOpts.Control = plan.Timeline
	ds, err := s.Run(ctx, actOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("ebs: actuated pass: %w", err)
	}
	return ds, plan, nil
}

// checkControlOptions validates Control/Observe against the fleet before a
// run, and drops an empty timeline so the uncontrolled hot path (a single
// nil check per IO) is taken whenever there is nothing to actuate.
func (s *Sim) checkControlOptions(opts *Options) error {
	top := s.fleet.Topology
	if opts.Control != nil {
		if err := opts.Control.Validate(len(top.Segments), len(top.QPs), len(top.VDs)); err != nil {
			return err
		}
		if opts.Control.DurSec != opts.DurationSec {
			return fmt.Errorf("ebs: control timeline spans %ds, run lasts %ds", opts.Control.DurSec, opts.DurationSec)
		}
		if opts.Control.Empty() {
			opts.Control = nil
		}
	}
	if opts.Observe != nil {
		got := opts.Observe.Shape
		want, err := s.ObsShapeFor(*opts, got.EpochSec)
		if err != nil {
			return fmt.Errorf("ebs: observation shape: %w", err)
		}
		if !got.Equal(want) {
			return fmt.Errorf("ebs: observation shape %+v does not match this fleet and run, want %+v", got, want)
		}
	}
	return nil
}

// observeTraffic is RunControlled's observe pass. Per virtual disk it runs
// the same traffic as Run (trafficOf: series, storm boost, generator) and
// stamps each IO with the segment, placement check, and worker thread the
// engine's emit path computes, then folds pooled batches into per-worker
// observations through Observation.ObserveBatch, merged in worker order
// after the pool drains.
//
// Everything else Run does — throttle replay, latency sampling, scenario
// delay models, tracing, merge, dataset assembly — feeds only latency and
// dataset columns no observation reads, and the generators draw from RNG
// streams independent of the latency stream, so obs ends up exactly as
// Run with Options.Observe would leave it. opts must be prepared, carry no
// control timeline, and not replay verbatim records.
func (s *Sim) observeTraffic(ctx context.Context, opts Options, obs *control.Observation) error {
	if err := s.checkScenarioOptions(&opts); err != nil {
		return err
	}
	nVDs := s.runVDs(opts)
	sched := s.expandChaos(opts)
	tos := make([]*trafficObserver, poolSize(opts, nVDs))
	for i := range tos {
		to := &trafficObserver{
			obs:    control.NewObservation(obs.Shape),
			batch:  trace.GetBatch(trace.DefaultBatchCap),
			top:    s.fleet.Topology,
			seg2bs: s.fleet.Seg2BS,
			wtOf:   s.wtOf,
		}
		to.emitFn = to.emit
		tos[i] = to
		defer to.batch.Release()
	}
	err := par.ForEachWorker(ctx, nVDs, len(tos), func(worker, vdIdx int) error {
		to := tos[worker]
		to.vd = cluster.VDID(vdIdx)
		to.node = to.top.VMs[to.top.VDs[vdIdx].VM].Node
		tr := s.trafficOf(to.series, to.vd, &opts, sched)
		to.series = tr.series
		tr.generate(to.emitFn)
		return to.err
	})
	if err != nil {
		return err
	}
	for _, to := range tos {
		to.obs.ObserveBatch(to.batch)
		if err := obs.Merge(to.obs); err != nil {
			return err
		}
	}
	return nil
}

// trafficObserver is one pool worker's state in the traffic-only observe
// pass: its own observation, a pooled batch filled with only the columns
// Observation.ObserveBatch reads, and the current disk's attribution. Rows
// of several disks share the batch; the counters do not care.
type trafficObserver struct {
	obs    *control.Observation
	batch  *trace.Batch
	series []workload.Sample
	emitFn func(workload.Event) // emit, bound once per worker

	top    *cluster.Topology
	seg2bs *cluster.SegmentMap
	wtOf   []int8
	vd     cluster.VDID
	node   cluster.NodeID
	err    error
}

// emit is the observe pass's event callback: vdEmitter.emit's placement
// lookup and uncontrolled worker-thread attribution, without latency.
func (o *trafficObserver) emit(ev workload.Event) {
	if o.err != nil {
		return
	}
	seg := o.top.SegmentOfOffset(o.vd, ev.Offset)
	if o.seg2bs.BSOf(seg) < 0 {
		o.err = fmt.Errorf("ebs: segment %d unplaced", seg)
		return
	}
	b := o.batch
	if b.Full() {
		o.obs.ObserveBatch(b)
		b.Reset()
	}
	i := b.Next()
	b.TimeUS[i] = ev.TimeUS
	b.Op[i] = ev.Op
	b.Size[i] = ev.Size
	b.Segment[i] = seg
	b.VD[i] = o.vd
	b.QP[i] = ev.QP
	b.Node[i] = o.node
	b.WT[i] = o.wtOf[ev.QP]
}

// lendCapsAt adapts a timeline's per-epoch cap deltas for one VD to the
// throttle's scheduled-caps hook (the engine replays each VD as its own
// one-disk group). Deltas clamp at zero: a lender never owes negative cap.
func lendCapsAt(ctl *control.Timeline, vd int) func(t int, eff []throttle.Caps) {
	return func(t int, eff []throttle.Caps) {
		ep := ctl.EpochOf(t)
		if r := ctl.LendTput(ep); r != nil {
			eff[0].Tput += r[vd]
			if eff[0].Tput < 0 {
				eff[0].Tput = 0
			}
		}
		if r := ctl.LendIOPS(ep); r != nil {
			eff[0].IOPS += r[vd]
			if eff[0].IOPS < 0 {
				eff[0].IOPS = 0
			}
		}
	}
}
