package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// The sim and control workloads share one input: the default fleet (3 DCs
// x 120 nodes, 1,201 VMs and 2,556 VDs), a 60 s window at DiTing's 1/3200
// trace sampling, every fourth IO generated, and a 12-storm chaos plan.
// Equal inputs make ios_per_s(control) / ios_per_s(sim) the cost of the
// control plane.
//
// The fleet is generated at one fixed seed. Per-disk volume is heavy-tailed,
// so the work of a run depends on the fleet seed far more than any bound
// could absorb: fleet seeds 11-15 gave 9M to 33M IOs per run and 2.0M to
// 3.1M ios/s on the same host. The benchmark seed is the engine's seed
// (Options.Seed) instead: it draws every latency sample and places the
// chaos storms, and leaves the fleet, and so the run's volume, in place.
const (
	simFleetSeed   = 1
	simWindowSec   = 60
	simTraceEvery  = trace.SampleRate
	simEventEvery  = 4
	simStorms      = 12
	simStormFactor = 8
	ctlPolicy      = "predictive-holt"
	ctlEpochSec    = 5
	setupRepeats   = 9
)

func simFleetConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = simFleetSeed
	return cfg
}

func simOptions(seed int64, workers int, stream *sketch.Set) ebs.Options {
	return ebs.Options{
		Seed:             seed,
		DurationSec:      simWindowSec,
		TraceSampleEvery: simTraceEvery,
		EventSampleEvery: simEventEvery,
		Workers:          workers,
		Chaos:            &chaos.Plan{Storms: simStorms, StormFactor: simStormFactor},
		Stream:           stream,
	}
}

// buildSim generates the fleet and builds the simulator, with a span
// around each public call when traced.
func buildSim(r *Run, group string) (*workload.Fleet, *ebs.Sim, error) {
	id := r.Trace.Begin("workload.Generate", group, 0)
	fleet, err := workload.Generate(simFleetConfig())
	r.Trace.End(id)
	if err != nil {
		return nil, nil, err
	}
	id = r.Trace.Begin("ebs.New", group, 0)
	sim := ebs.New(fleet)
	r.Trace.End(id)
	return fleet, sim, nil
}

// setupSim measures set-up (fleet generation plus ebs.New) several times
// and keeps the last simulator.
func setupSim(r *Run) (*workload.Fleet, *ebs.Sim, float64, error) {
	var fleet *workload.Fleet
	var sim *ebs.Sim
	s, err := setupTimes(setupRepeats, func() error {
		var err error
		fleet, sim, err = buildSim(r, "setup")
		return err
	})
	return fleet, sim, s, err
}

// simOutput is what the output checks compare: the dataset and sketch
// fingerprints, and for controlled runs the decision log and imbalance.
type simOutput struct {
	Dataset, Sketch string
	Log             string
	MeanCoV         float64
	IOs             uint64
}

func (o simOutput) key() string {
	return fmt.Sprintf("ds=%s sk=%s log=%s cov=%.17g", o.Dataset, o.Sketch, o.Log, o.MeanCoV)
}

func runOnce(ctx context.Context, sim *ebs.Sim, seed int64, workers int, opts func(*ebs.Options)) (simOutput, error) {
	stream := sketch.NewSet(sketch.Config{})
	o := simOptions(seed, workers, stream)
	if opts != nil {
		opts(&o)
	}
	ds, err := sim.Run(ctx, o)
	if err != nil {
		return simOutput{}, err
	}
	return simOutput{Dataset: invariant.Fingerprint(ds), Sketch: stream.Fingerprint(), IOs: stream.Totals().IOs}, nil
}

func controlOnce(ctx context.Context, sim *ebs.Sim, seed int64, workers int) (simOutput, error) {
	pol, err := control.ByName(ctlPolicy)
	if err != nil {
		return simOutput{}, err
	}
	stream := sketch.NewSet(sketch.Config{})
	ds, plan, err := sim.RunControlled(ctx, simOptions(seed, workers, stream), pol, control.Config{EpochSec: ctlEpochSec})
	if err != nil {
		return simOutput{}, err
	}
	return simOutput{
		Dataset: invariant.Fingerprint(ds),
		Sketch:  stream.Fingerprint(),
		Log:     plan.LogFingerprint(),
		MeanCoV: control.Imbalance(plan.BSLoad).MeanCoV,
		IOs:     stream.Totals().IOs,
	}, nil
}

func runSim(ctx context.Context, r *Run) error {
	if r.Trace != nil {
		return traceSim(ctx, r)
	}
	return untracedEngine(ctx, r, func(sim *ebs.Sim, workers int) (simOutput, error) {
		return runOnce(ctx, sim, r.Seed, workers, nil)
	})
}

func runControl(ctx context.Context, r *Run) error {
	if r.Trace != nil {
		return traceControl(ctx, r)
	}
	return untracedEngine(ctx, r, func(sim *ebs.Sim, workers int) (simOutput, error) {
		return controlOnce(ctx, sim, r.Seed, workers)
	})
}

// untracedEngine is the end-to-end measurement of sim and control: timed
// runs at nproc workers, each checked against one Workers: 1 reference.
func untracedEngine(ctx context.Context, r *Run, once func(*ebs.Sim, int) (simOutput, error)) error {
	_, sim, setup, err := setupSim(r)
	if err != nil {
		return err
	}
	var outs []simOutput
	var rates, durs []float64
	r.window(func(i int) time.Duration {
		var out simOutput
		d, err := timed(func() error {
			var err error
			out, err = once(sim, r.Procs)
			return err
		})
		if err != nil {
			r.Checks.Fail(fmt.Sprintf("run %d", i), err)
			return d
		}
		outs = append(outs, out)
		rates = append(rates, float64(out.IOs)/secs(d))
		durs = append(durs, msec(d))
		return d
	})
	if len(outs) == 0 {
		return fmt.Errorf("every run failed")
	}
	heap := retainedHeapMiB()
	ref, err := once(sim, 1)
	if err != nil {
		return fmt.Errorf("Workers: 1 reference: %w", err)
	}
	for i, o := range outs {
		r.Checks.Check(fmt.Sprintf("run %d vs Workers: 1", i), o.key(), ref.key())
	}
	fmt.Printf("runs %d, ios %d per run, ms %.0f, reference %s\n", len(outs), ref.IOs, durs, ref.key())
	if ref.Log != "" {
		fmt.Printf("mean_cov %.4f\n", ref.MeanCoV)
	}
	r.Metrics["setup_s"] = setup
	r.Metrics["ios_per_s"] = Median(rates)
	r.Metrics["study_p50_ms"] = Median(durs)
	r.Metrics["heap_retained_mib"] = heap
	return nil
}

// traceSim is the traced sim run: the public pipeline of Run step by step
// (Generate, ebs.New, Run, then RunShard over a shard plan and
// MergeShards), a standalone pass over the engine's inner layers, and a
// single-worker pass whose progress timestamps give each disk's cost.
func traceSim(ctx context.Context, r *Run) error {
	fleet, sim, err := buildSim(r, "setup")
	if err != nil {
		return err
	}
	// Untraced twin of the traced run below, for the tracing overhead.
	d0, err := timed(func() error { _, err := runOnce(ctx, sim, r.Seed, r.Procs, nil); return err })
	if err != nil {
		return err
	}

	var out simOutput
	id := r.Trace.Begin("ebs.Run", "run", 0)
	mib, gcs, err := allocDelta(func() error {
		var err error
		out, err = runOnce(ctx, sim, r.Seed, r.Procs, nil)
		return err
	})
	r.Trace.End(id)
	if err != nil {
		return err
	}
	spans := r.Trace.Spans()
	tRun := Total(spans, "ebs.Run")
	r.Metrics["bench.trace_overhead"] = secs(tRun) / secs(d0)
	r.Metrics["ebs.ios"] = float64(out.IOs)
	r.Metrics["ebs.alloc_mib"] = mib
	r.Metrics["ebs.gc_cycles"] = float64(gcs)

	sharded, err := shardedRun(ctx, r, sim, len(fleet.Topology.VDs))
	if err != nil {
		return err
	}
	if err := layerPass(r, fleet); err != nil {
		return err
	}
	ref, err := skewPass(ctx, r, sim, tRun, nil)
	if err != nil {
		return err
	}
	r.Checks.Check("traced Run vs Workers: 1", out.key(), ref.key())
	r.Checks.Check("RunShard+MergeShards vs Workers: 1", sharded, ref.Dataset)
	r.Metrics["workload.generate_s"] = secs(Total(r.Trace.Spans(), "workload.Generate"))
	return nil
}

// shardedRun executes the run as the fabric does — RunShard over a shard
// plan, nproc shards at a time, then MergeShards — and returns the merged
// dataset fingerprint.
func shardedRun(ctx context.Context, r *Run, sim *ebs.Sim, nVDs int) (string, error) {
	opts := simOptions(r.Seed, 1, sketch.NewSet(sketch.Config{}))
	plan := cluster.PlanShards(nVDs, 4*r.Procs)
	parts := make([]*ebs.ShardPartial, len(plan))
	errs := make([]error, len(plan))
	next := make(chan int, len(plan))
	for i := range plan {
		next <- i
	}
	close(next)
	root := r.Trace.Begin("ebs.Shards", "shards", 0)
	var wg sync.WaitGroup
	for w := 0; w < r.Procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := r.Trace.Begin("ebs.RunShard", "shards", root)
				parts[i], errs[i] = sim.RunShard(ctx, opts, plan[i].Lo, plan[i].Hi)
				r.Trace.End(id)
			}
		}()
	}
	wg.Wait()
	r.Trace.End(root)
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	id := r.Trace.Begin("ebs.MergeShards", "shards", 0)
	ds, err := sim.MergeShards(opts, parts)
	r.Trace.End(id)
	if err != nil {
		return "", err
	}
	spans := r.Trace.Spans()
	pass, merge := Total(spans, "ebs.Shards"), Total(spans, "ebs.MergeShards")
	r.Metrics["ebs.shard_max_share"] = secs(MaxDur(spans, "ebs.RunShard")) / secs(pass)
	r.Metrics["ebs.merge_share"] = secs(merge) / secs(pass+merge)
	return invariant.Fingerprint(ds), nil
}

// skewPass runs the engine on one worker and turns the progress timestamps
// into per-disk host times: with one worker, disks finish one after
// another, so consecutive timestamps bracket one disk each. tN is the
// nproc-worker time of the same work, for the scaling efficiency.
func skewPass(ctx context.Context, r *Run, sim *ebs.Sim, tN time.Duration, extra func(*ebs.Options)) (simOutput, error) {
	var stamps []time.Time
	t0 := time.Now()
	out, err := runOnce(ctx, sim, r.Seed, 1, func(o *ebs.Options) {
		if extra != nil {
			extra(o)
		}
		o.Progress = func(done, total int) { stamps = append(stamps, time.Now()) }
	})
	t1 := time.Since(t0)
	if err != nil {
		return out, err
	}
	vd := make([]float64, len(stamps))
	prev := t0
	for i, s := range stamps {
		r.Trace.Add("ebs.vd", "skew", 0, prev, s)
		vd[i] = msec(s.Sub(prev))
		prev = s
	}
	var sum float64
	for _, x := range vd {
		sum += x
	}
	r.Metrics["ebs.vd_median_to_mean"] = Median(vd) / (sum / float64(len(vd)))
	r.Metrics["ebs.vd_max_share"] = Max(vd) / sum
	r.Metrics["ebs.vd_top1pct_share"] = topShare(vd, 0.01)
	r.Metrics["ebs.scaling_eff"] = secs(t1) / (float64(r.Procs) * secs(tN))
	return out, nil
}

// topShare is the share of the total held by the largest frac of samples
// (at least one sample).
func topShare(xs []float64, frac float64) float64 {
	s := sorted(xs)
	k := int(float64(len(s)) * frac)
	if k < 1 {
		k = 1
	}
	var top, all float64
	for i, x := range s {
		all += x
		if i >= len(s)-k {
			top += x
		}
	}
	if all == 0 {
		return 0
	}
	return top / all
}

// traceControl is the traced control run: RunControlled's public steps
// (ObsShapeFor, Run with Observe, ControlInput, BuildPlan, Run with the
// timeline) each under its own span, checked against RunControlled itself.
func traceControl(ctx context.Context, r *Run) error {
	_, sim, err := buildSim(r, "setup")
	if err != nil {
		return err
	}
	var whole simOutput
	d0, err := timed(func() error {
		var err error
		whole, err = controlOnce(ctx, sim, r.Seed, r.Procs)
		return err
	})
	if err != nil {
		return err
	}

	var out simOutput
	var plan *control.Plan
	root := r.Trace.Begin("ebs.RunControlled", "control", 0)
	mib, gcs, err := allocDelta(func() error {
		var err error
		out, plan, err = controlSteps(ctx, r, sim, root)
		return err
	})
	r.Trace.End(root)
	if err != nil {
		return err
	}
	r.Checks.Check("RunControlled steps vs RunControlled", out.key(), whole.key())

	spans := r.Trace.Spans()
	observe := Total(spans, "control.Observe")
	all := Total(spans, "ebs.RunControlled")
	planning := Total(spans, "control.BuildPlan") + Total(spans, "ebs.ObsShapeFor") + Total(spans, "ebs.ControlInput")
	r.Metrics["bench.trace_overhead"] = secs(all) / secs(d0)
	r.Metrics["control.observe_share"] = secs(observe) / secs(all)
	r.Metrics["control.plan_share"] = secs(planning) / secs(all)
	r.Metrics["control.actuate_share"] = secs(Total(spans, "control.Actuate")) / secs(all)
	r.Metrics["control.decisions"] = float64(len(plan.Decisions))
	r.Metrics["control.epochs"] = float64(len(plan.BSLoad))
	r.Metrics["control.mean_cov"] = out.MeanCoV
	r.Metrics["ebs.ios"] = float64(out.IOs)
	r.Metrics["ebs.alloc_mib"] = mib
	r.Metrics["ebs.gc_cycles"] = float64(gcs)
	fmt.Printf("mean_cov %.4f, %d decisions over %d epochs\n", out.MeanCoV, len(plan.Decisions), len(plan.BSLoad))

	// The observe pass is a plain engine run, so its single-worker twin
	// gives the per-disk cost skew of the controlled workload.
	shape, err := sim.ObsShapeFor(simOptions(r.Seed, 1, nil), ctlEpochSec)
	if err != nil {
		return err
	}
	if _, err := skewPass(ctx, r, sim, observe, func(o *ebs.Options) {
		o.Stream = nil
		o.Observe = control.NewObservation(shape)
	}); err != nil {
		return err
	}
	r.Metrics["workload.generate_s"] = secs(Total(r.Trace.Spans(), "workload.Generate"))
	return nil
}

// controlSteps performs RunControlled's two passes through the public
// functions it is built from, with the same option stripping for the
// observe pass.
func controlSteps(ctx context.Context, r *Run, sim *ebs.Sim, parent int) (simOutput, *control.Plan, error) {
	pol, err := control.ByName(ctlPolicy)
	if err != nil {
		return simOutput{}, nil, err
	}
	stream := sketch.NewSet(sketch.Config{})
	opts := simOptions(r.Seed, r.Procs, stream)

	id := r.Trace.Begin("ebs.ObsShapeFor", "control", parent)
	shape, err := sim.ObsShapeFor(opts, ctlEpochSec)
	r.Trace.End(id)
	if err != nil {
		return simOutput{}, nil, err
	}
	obs := control.NewObservation(shape)
	observe := opts
	observe.Stream = nil
	observe.Observe = obs
	id = r.Trace.Begin("control.Observe", "control", parent)
	_, err = sim.Run(ctx, observe)
	r.Trace.End(id)
	if err != nil {
		return simOutput{}, nil, err
	}

	id = r.Trace.Begin("ebs.ControlInput", "control", parent)
	in, err := sim.ControlInput(opts, obs)
	r.Trace.End(id)
	if err != nil {
		return simOutput{}, nil, err
	}
	id = r.Trace.Begin("control.BuildPlan", "control", parent)
	plan, err := control.BuildPlan(pol, control.Config{EpochSec: ctlEpochSec}, in)
	r.Trace.End(id)
	if err != nil {
		return simOutput{}, nil, err
	}

	act := opts
	act.Control = plan.Timeline
	id = r.Trace.Begin("control.Actuate", "control", parent)
	ds, err := sim.Run(ctx, act)
	r.Trace.End(id)
	if err != nil {
		return simOutput{}, nil, err
	}
	return simOutput{
		Dataset: invariant.Fingerprint(ds),
		Sketch:  stream.Fingerprint(),
		Log:     plan.LogFingerprint(),
		MeanCoV: control.Imbalance(plan.BSLoad).MeanCoV,
		IOs:     stream.Totals().IOs,
	}, plan, nil
}
