// Command ebssim runs the end-to-end EBS stack simulation and reports
// stack-level statistics: per-stage latency percentiles, worker-thread
// balance, throttle pressure, and storage-node traffic spread.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/report"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// roleFlags is the slice of the flag set that selects an execution role:
// single-process run, in-process fabric (-dist), TCP coordinator
// (-workers-addr, optionally replicated via -peers/-replica-id), or TCP
// worker (-serve). Exactly one role may be selected.
type roleFlags struct {
	dist        int
	workersAddr string
	serveAddr   string
	replicas    int
	leaderKill  int
	replicaID   int
	peers       string
	control     string
	epochSec    int
	scenario    string
	replay      string
}

// validateFlags rejects contradictory role selections up front, naming every
// flag involved so the exit is actionable instead of one role silently
// winning over the other.
func validateFlags(f roleFlags) error {
	if f.serveAddr != "" {
		if f.dist > 0 || f.workersAddr != "" {
			return fmt.Errorf("-serve selects the worker role, which conflicts with the coordinator roles -dist and -workers-addr: pass exactly one of -serve, -dist, -workers-addr")
		}
		return nil // worker role takes every simulation flag from the coordinator
	}
	if f.dist > 0 && f.workersAddr != "" {
		return fmt.Errorf("-dist runs the fabric in-process and -workers-addr serves it over TCP: the roles conflict, pass exactly one of -dist, -workers-addr")
	}
	if f.replicas < 1 {
		return fmt.Errorf("-replicas %d: want >= 1", f.replicas)
	}
	if f.replicas > 1 && f.dist == 0 {
		return fmt.Errorf("-replicas %d replicates the in-process control plane and needs -dist (for TCP replication use -workers-addr with -peers)", f.replicas)
	}
	if f.peers != "" && f.workersAddr == "" {
		return fmt.Errorf("-peers replicates the TCP coordinator and needs -workers-addr")
	}
	if f.replicaID != 0 && f.peers == "" {
		return fmt.Errorf("-replica-id %d needs -peers (it indexes this coordinator into the peer list)", f.replicaID)
	}
	if f.leaderKill < 0 {
		return fmt.Errorf("-leader-kill %d: want >= 0", f.leaderKill)
	}
	if f.leaderKill > 0 {
		if f.dist == 0 || f.replicas < 2 {
			return fmt.Errorf("-leader-kill needs -dist and -replicas >= 2")
		}
		if max := (f.replicas - 1) / 2; f.leaderKill > max {
			return fmt.Errorf("a %d-replica control plane survives at most %d leader kills, got -leader-kill %d",
				f.replicas, max, f.leaderKill)
		}
	}
	if f.control != "" {
		if f.dist > 0 || f.workersAddr != "" || f.replicas > 1 {
			return fmt.Errorf("-control runs the sequential predict->act loop in-process, which conflicts with the distributed roles -dist, -workers-addr, -replicas")
		}
		if _, err := control.ByName(f.control); err != nil {
			return err
		}
	} else if f.epochSec != 0 {
		return fmt.Errorf("-epoch-sec needs -control")
	}
	if f.epochSec < 0 {
		return fmt.Errorf("-epoch-sec %d: want >= 0 (0 = an eighth of -dur)", f.epochSec)
	}
	if f.scenario != "" && f.replay != "" {
		return fmt.Errorf("-replay is shorthand for -scenario replay,path=...: pass exactly one of -scenario, -replay")
	}
	spec := f.scenario
	if f.replay != "" {
		spec = "replay,path=" + f.replay
	}
	if spec != "" {
		// Build validates the spec statically; replay trace files are only
		// opened later, at bind time.
		built, err := scenario.Build(spec)
		if err != nil {
			return err
		}
		if built.Name() == "replay" && (f.dist > 0 || f.workersAddr != "") {
			return fmt.Errorf("-replay (and -scenario replay,...) reads a local trace file, which the distributed roles -dist and -workers-addr cannot ship to workers: replay runs are single-process")
		}
	}
	return nil
}

func main() {
	var (
		seed    = flag.Int64("seed", 1, "fleet generation seed")
		dur     = flag.Int("dur", 60, "observation window seconds")
		nodes   = flag.Int("nodes", 16, "compute nodes per DC")
		maxVDs  = flag.Int("max-vds", 120, "virtual disks to simulate (0 = all)")
		workers = flag.Int("workers", 0, "simulation workers (0 = one per CPU)")
		verbose = flag.Bool("progress", false, "print simulation progress")
		check   = flag.Bool("check", false, "run the invariant suite over the run (conservation laws, throttle audit)")
		stream  = flag.Bool("stream", false, "fold every IO into O(1)-memory streaming sketches and report online skewness metrics with an exact-vs-sketch accuracy table")

		workersAddr = flag.String("workers-addr", "", "run as fabric coordinator: listen on this address for ebsd/-serve workers and merge their shard results")
		serveAddr   = flag.String("serve", "", "run as fabric worker: join the coordinator at this address and execute shards (all simulation flags are taken from the coordinator)")
		dist        = flag.Int("dist", 0, "run the fabric in-process over a loopback transport with this many workers and verify the merged dataset against a single-process run")
		shards      = flag.Int("shards", 0, "fabric shard count (0 = default)")
		replicas    = flag.Int("replicas", 1, "with -dist: replicate the coordinator control plane across this many consensus-backed replicas")
		leaderKill  = flag.Int("leader-kill", 0, "with -dist and -replicas >= 2: schedule this many chaos leader kills; the run must still match single-process bit for bit")
		replicaID   = flag.Int("replica-id", 0, "with -workers-addr and -peers: this coordinator's replica ID")
		peers       = flag.String("peers", "", "with -workers-addr: comma-separated control-plane addresses of every replica, indexed by replica ID (replicates the coordinator over TCP)")

		controlPol = flag.String("control", "", "run the study through the mitigation control plane under this policy (noop, reactive, predictive[-holt|-arima|-gbt], oracle) and report imbalance before/after actuation")
		epochSec   = flag.Int("epoch-sec", 0, "with -control: control epoch length in seconds (0 = an eighth of -dur, at least 1)")

		scenarioSpec = flag.String("scenario", "", "reshape the fleet's traffic with a scenario-library spec string (one of: "+strings.Join(scenario.Names(), ", ")+"; e.g. \"bufferbloat\", \"elastic,step=10,hi=2\"); composes with -chaos, -control, -stream, -check, and (except replay) -dist")
		replayPath   = flag.String("replay", "", "replay a trace file through the full stack; shorthand for -scenario replay,path=PATH (native trace.jsonl/trace.csv, MSR, and tianchi schemas are auto-detected)")

		chaosOn     = flag.Bool("chaos", false, "inject a deterministic fault schedule (see -crashes, -storms, ...)")
		chaosSeed   = flag.Int64("chaos-seed", 0, "fault schedule seed (0 = follow -seed)")
		crashes     = flag.Int("crashes", 2, "BlockServer crash-and-recover windows to schedule")
		downSec     = flag.Int("down-sec", 5, "mean crash window length in seconds")
		penaltyUS   = flag.Float64("penalty-us", 0, "frontend-net latency penalty (us) for IOs hitting a crashed BS (0 = observe only)")
		storms      = flag.Int("storms", 1, "hot-tenant traffic storms to schedule")
		stormFactor = flag.Float64("storm-factor", 8, "demand multiplier inside a storm window")
	)
	flag.Parse()

	if err := validateFlags(roleFlags{
		dist:        *dist,
		workersAddr: *workersAddr,
		serveAddr:   *serveAddr,
		replicas:    *replicas,
		leaderKill:  *leaderKill,
		replicaID:   *replicaID,
		peers:       *peers,
		control:     *controlPol,
		epochSec:    *epochSec,
		scenario:    *scenarioSpec,
		replay:      *replayPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ebssim:", err)
		os.Exit(2)
	}
	if *serveAddr != "" {
		runWorkerRole(*serveAddr)
		return
	}

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.DCs = 1
	cfg.NodesPerDC = *nodes
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = 16
	cfg.DurationSec = *dur

	fleet, err := workload.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebssim:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := ebs.Options{
		DurationSec:      *dur,
		TraceSampleEvery: 1,
		EventSampleEvery: 8,
		MaxVDs:           *maxVDs,
		Workers:          *workers,
		Check:            *check,
	}
	var sketchSet *sketch.Set
	if *stream {
		sketchSet = sketch.NewSet(sketch.Config{})
		opts.Stream = sketchSet
	}
	var chaosStats chaos.Stats
	if *chaosOn {
		opts.Chaos = &chaos.Plan{
			Seed:              *chaosSeed,
			BSCrashes:         *crashes,
			MeanDownSec:       *downSec,
			FailoverPenaltyUS: *penaltyUS,
			Storms:            *storms,
			StormFactor:       *stormFactor,
			Recoverable:       true,
		}
		opts.ChaosStats = &chaosStats
	}
	if *verbose {
		opts.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "simulated %d/%d VDs\n", done, total)
			}
		}
	}
	specStr := *scenarioSpec
	if *replayPath != "" {
		specStr = "replay,path=" + *replayPath
	}
	var scWL scenario.Workload
	if specStr != "" && *dist == 0 && *workersAddr == "" {
		// Local execution binds the scenario here; the distributed roles ship
		// the spec string instead and every worker binds it to its own
		// regenerated fleet.
		built, berr := scenario.Build(specStr)
		if berr == nil {
			scWL, berr = built.Bind(fleet)
		}
		if berr != nil {
			fmt.Fprintln(os.Stderr, "ebssim:", berr)
			os.Exit(1)
		}
		opts.Scenario = scWL
		if es, ok := scWL.(interface{ EventSampleEvery() int }); ok {
			// Replay ingest already thinned the stream: tell the engine the
			// rate so metric rows re-inflate to full-trace estimates.
			opts.EventSampleEvery = es.EventSampleEvery()
		}
	}
	var ds *trace.Dataset
	switch {
	case *controlPol != "":
		ds, err = runControlled(ctx, fleet, opts, *controlPol, *epochSec)
	case *dist > 0:
		ds, err = runDistVerified(ctx, cfg, opts, specStr, *dist, *shards, *replicas, *leaderKill)
	case *workersAddr != "":
		ds, err = runCoordinator(ctx, cfg, opts, specStr, *workersAddr, *shards, *replicaID, *peers)
	default:
		ds, err = ebs.New(fleet).Run(ctx, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebssim:", err)
		os.Exit(1)
	}
	fmt.Printf("simulated %d IOs over %ds (%d VDs)\n", len(ds.Trace), *dur, *maxVDs)
	if scWL != nil {
		fmt.Printf("scenario: %s\n", scWL.Spec())
		if rp, ok := scWL.(*scenario.Replay); ok {
			st := rp.Stats()
			fmt.Printf("  replay: schema %s, %d records parsed, %d kept (1/%d), %d reordered, %d clamped\n",
				st.Schema, st.Records, st.Kept, rp.EventSampleEvery(), st.Reordered, st.Clamped)
		}
	} else if specStr != "" {
		fmt.Printf("scenario: %s (bound per fabric worker)\n", specStr)
	}
	if *check {
		fmt.Println("invariant suite: all conservation laws hold")
	}
	if *chaosOn {
		sched := opts.Chaos.Expand(*seed, chaos.Shape{
			BSs:    len(fleet.Topology.StorageNodes),
			VDs:    len(fleet.Topology.VDs),
			DurSec: *dur,
		})
		fmt.Println(sched)
		fmt.Println(chaosStats)
	}
	fmt.Println()

	if *stream {
		printStream(sketchSet, ds)
	}

	// Per-stage latency percentiles.
	fmt.Println("latency by stage (us):")
	fmt.Printf("  %-14s %8s %8s %8s\n", "stage", "p50", "p99", "mean")
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		var xs []float64
		for i := range ds.Trace {
			xs = append(xs, float64(ds.Trace[i].Latency[st]))
		}
		fmt.Printf("  %-14s %8.0f %8.0f %8.0f\n", st,
			stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.99), stats.Mean(xs))
	}
	var e2e []float64
	for i := range ds.Trace {
		e2e = append(e2e, ds.Trace[i].TotalLatency())
	}
	fmt.Printf("  %-14s %8.0f %8.0f %8.0f\n\n", "end-to-end",
		stats.Quantile(e2e, 0.5), stats.Quantile(e2e, 0.99), stats.Mean(e2e))

	// Worker-thread balance per node (top 5 busiest nodes).
	type nodeLoad struct {
		node cluster.NodeID
		wt   map[int8]float64
		tot  float64
	}
	loads := map[cluster.NodeID]*nodeLoad{}
	for i := range ds.Trace {
		r := &ds.Trace[i]
		nl := loads[r.Node]
		if nl == nil {
			nl = &nodeLoad{node: r.Node, wt: map[int8]float64{}}
			loads[r.Node] = nl
		}
		nl.wt[r.WT] += float64(r.Size)
		nl.tot += float64(r.Size)
	}
	var ranked []*nodeLoad
	for _, nl := range loads {
		ranked = append(ranked, nl)
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].tot > ranked[j].tot })
	fmt.Println("worker-thread balance (busiest nodes):")
	for i, nl := range ranked {
		if i >= 5 {
			break
		}
		var xs []float64
		for wt := 0; wt < fleet.Topology.Nodes[nl.node].WorkerNum; wt++ {
			xs = append(xs, nl.wt[int8(wt)])
		}
		fmt.Printf("  node %3d: %6.1f MiB total, WT-CoV %.2f\n",
			nl.node, nl.tot/(1<<20), stats.NormCoV(xs))
	}

	// Storage-node spread.
	perSN := map[cluster.StorageNodeID]float64{}
	for i := range ds.Trace {
		perSN[ds.Trace[i].Storage] += float64(ds.Trace[i].Size)
	}
	var snLoads []float64
	for _, v := range perSN {
		snLoads = append(snLoads, v)
	}
	fmt.Printf("\nstorage nodes touched: %d, inter-BS CoV %.2f\n", len(snLoads), stats.NormCoV(snLoads))
}

// printStream reports the online skewness metrics computed from the merged
// sketch state and scores them against the exact batch recomputation over
// the retained dataset.
func printStream(set *sketch.Set, ds *trace.Dataset) {
	sk := set.Skewness()
	fmt.Println("streaming skewness (sketch state only):")
	rows := [][2]string{
		{"IOs / bytes", fmt.Sprintf("%d / %.1f MiB", sk.IOs, sk.Bytes/(1<<20))},
		{"1%-CCR / 10%-CCR (VDs)", fmt.Sprintf("%.3f / %.3f", sk.CCR1, sk.CCR10)},
		{"NormCoV (VDs)", fmt.Sprintf("%.3f", sk.NormCoV)},
		{"P2A read / write / total", fmt.Sprintf("%.2f / %.2f / %.2f", sk.P2ARead, sk.P2AWrite, sk.P2ATotal)},
		{"EWMA Bps / mean RAR", fmt.Sprintf("%.3g / %.3f", sk.EWMABps, sk.MeanRAR)},
		{"write ratio (W-R)/(W+R)", fmt.Sprintf("%.3f", sk.WrRatio)},
		{"latency p50 / p99 (us)", fmt.Sprintf("%.0f / %.0f", sk.LatencyP50, sk.LatencyP99)},
		{"IO size p50 / p99 (B)", fmt.Sprintf("%.0f / %.0f", sk.SizeP50, sk.SizeP99)},
		{"active blocks / segments", fmt.Sprintf("%.0f / %.0f", sk.ActiveBlocks, sk.ActiveSegments)},
	}
	for _, row := range rows {
		fmt.Printf("  %-26s %s\n", row[0], row[1])
	}
	fmt.Println("  hottest VDs (bytes):")
	for i, e := range sk.HotVDs {
		if i >= 5 {
			break
		}
		fmt.Printf("    VD %4d  %8.1f MiB (+/- %.1f)\n", e.Key,
			float64(e.Count)/(1<<20), float64(e.Err)/(1<<20))
	}

	exact := sketch.ExactSkewness(ds, set.Config())
	fmt.Print(report.AccuracySection("exact batch vs streamed sketch:", []report.AccuracyRow{
		{Metric: "1%-CCR", Exact: exact.CCR1, Sketch: sk.CCR1, Bound: 1e-6},
		{Metric: "10%-CCR", Exact: exact.CCR10, Sketch: sk.CCR10, Bound: 1e-6},
		{Metric: "NormCoV", Exact: exact.NormCoV, Sketch: sk.NormCoV, Bound: 1e-6},
		{Metric: "P2A total", Exact: exact.P2ATotal, Sketch: sk.P2ATotal, Bound: 1e-6},
		{Metric: "mean RAR", Exact: exact.MeanRAR, Sketch: sk.MeanRAR, Bound: 1e-6},
		{Metric: "write ratio", Exact: exact.WrRatio, Sketch: sk.WrRatio, Bound: 1e-6},
		{Metric: "latency p50", Exact: exact.LatencyP50, Sketch: sk.LatencyP50, Bound: 0.02},
		{Metric: "latency p99", Exact: exact.LatencyP99, Sketch: sk.LatencyP99, Bound: 0.02},
		{Metric: "size p50", Exact: exact.SizeP50, Sketch: sk.SizeP50, Bound: 0.02},
		{Metric: "size p99", Exact: exact.SizeP99, Sketch: sk.SizeP99, Bound: 0.02},
		{Metric: "active blocks", Exact: exact.ActiveBlocks, Sketch: sk.ActiveBlocks, Bound: 0.10},
		{Metric: "active segments", Exact: exact.ActiveSegments, Sketch: sk.ActiveSegments, Bound: 0.10},
	}))
	fmt.Printf("  hot-VD overlap %.2f, hot-segment overlap %.2f\n\n",
		sketch.Overlap(exact.HotVDs, sk.HotVDs),
		sketch.Overlap(exact.HotSegments, sk.HotSegments))
}

// runControlled executes the predict->act loop end to end — a traffic-only
// observe pass, one plan, an actuated pass — and prints the mitigation
// summary ahead of the regular stack report. The dataset the report sections
// consume is the actuated run's, so every downstream number reflects life
// under mitigation.
func runControlled(ctx context.Context, fleet *workload.Fleet, opts ebs.Options, policy string, epochSec int) (*trace.Dataset, error) {
	pol, err := control.ByName(policy)
	if err != nil {
		return nil, err
	}
	if epochSec == 0 {
		epochSec = opts.DurationSec / 8
		if epochSec < 1 {
			epochSec = 1
		}
	}
	ds, plan, err := ebs.New(fleet).RunControlled(ctx, opts, pol, control.Config{EpochSec: epochSec})
	if err != nil {
		return nil, err
	}
	var migrates, evacs, lends, rebinds int
	for _, d := range plan.Decisions {
		switch d.Kind {
		case control.DecMigrate:
			migrates++
		case control.DecEvacuate:
			evacs++
		case control.DecLend:
			lends++
		case control.DecRebind:
			rebinds++
		}
	}
	imb := control.Imbalance(plan.BSLoad)
	fmt.Printf("control plane: policy %s, epoch %ds (%d epochs)\n", plan.Policy, epochSec, len(plan.BSLoad))
	fmt.Printf("  decisions: %d (%d migrate, %d evacuate, %d lend, %d rebind)\n",
		len(plan.Decisions), migrates, evacs, lends, rebinds)
	fmt.Printf("  decision log %s\n", plan.LogFingerprint())
	fmt.Printf("  inter-BS imbalance: mean CoV %.4f, max CoV %.4f, peak share %.3f\n",
		imb.MeanCoV, imb.MaxCoV, imb.PeakShare)
	return ds, nil
}

// runWorkerRole turns this process into a fabric worker: every simulation
// parameter comes from the coordinator's JoinFleet reply, so one coordinator
// drives a homogeneous fleet no matter how each worker was started.
// SIGINT requests an orderly drain (finish and upload the current shard).
func runWorkerRole(addr string) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	drain := make(chan struct{})
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "ebssim: drain requested; finishing current shard")
		close(drain)
	}()
	err := fabric.RunWorker(context.Background(), fabric.WorkerConfig{
		Dials: []func() (net.Conn, error){func() (net.Conn, error) { return net.Dial("tcp", addr) }},
		Drain: drain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebssim:", err)
		os.Exit(1)
	}
}

// serveFabric mounts a coordinator on l and waits for the merged dataset.
// After the run completes it keeps serving briefly so every worker can
// observe AssignDone and deregister before the listener goes away.
func serveFabric(ctx context.Context, co *fabric.Coordinator, l net.Listener) (*trace.Dataset, error) {
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(l) //nolint:errcheck — lifecycle ends with Close
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "ebssim: coordinator dispatching %d shards\n", len(co.Plan()))
	ds, err := co.Wait(ctx)
	if err != nil {
		return nil, err
	}
	drainDeadline := time.Now().Add(5 * time.Second)
	for co.Workers() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return ds, nil
}

// runCoordinator listens on addr for worker daemons and merges their shard
// results into the run's dataset. With -peers it becomes one replica of a
// consensus-backed control plane: every ledger mutation is committed across
// the replica set before it takes effect, workers are redirected to the
// leader, and a surviving replica finishes the run if this one dies.
func runCoordinator(ctx context.Context, cfg workload.Config, opts ebs.Options, scenarioSpec, addr string, shards, replicaID int, peers string) (*trace.Dataset, error) {
	fc := fabric.Config{Fleet: cfg, Opts: opts, Scenario: scenarioSpec, Shards: shards}
	if peers != "" {
		peerList := strings.Split(peers, ",")
		if len(peerList) < 2 {
			return nil, fmt.Errorf("-peers needs at least two comma-separated addresses")
		}
		if replicaID < 0 || replicaID >= len(peerList) {
			return nil, fmt.Errorf("-replica-id %d outside the %d-replica set", replicaID, len(peerList))
		}
		pt := fabric.NewPeerTransport(replicaID, peerList)
		defer pt.Close()
		fc.ReplicaID = replicaID
		fc.Replicas = len(peerList)
		fc.Transport = pt
		fc.PeerAddrs = peerList
	}
	co, err := fabric.NewCoordinator(fc)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	if peers != "" {
		fmt.Fprintf(os.Stderr, "ebssim: control-plane replica %d/%d on %s (workers: ebsd -join %s)\n",
			replicaID, fc.Replicas, l.Addr(), peers)
	} else {
		fmt.Fprintf(os.Stderr, "ebssim: waiting for workers on %s (ebsd -join %s)\n", l.Addr(), l.Addr())
	}
	return serveFabric(ctx, co, l)
}

// runDistVerified runs the whole fabric in-process: a replica set of
// coordinators over loopback transports plus n workers, then re-runs the
// simulation single-process and fails unless the two dataset fingerprints
// are identical — the distributed determinism oracle behind `make
// dist-smoke`.
// With replicas > 1 the control plane is a consensus-backed replica set, and
// leaderKills > 0 additionally schedules chaos kills of the acting leader
// mid-run — the fingerprint comparison must STILL hold, which is the
// replicated control plane's whole contract.
func runDistVerified(ctx context.Context, cfg workload.Config, opts ebs.Options, scenarioSpec string, n, shards, replicas, leaderKills int) (*trace.Dataset, error) {
	distOpts := opts
	var distStream *sketch.Set
	if opts.Stream != nil {
		distStream = sketch.NewSet(opts.Stream.Config())
		distOpts.Stream = distStream
	}
	var distChaos chaos.Stats
	if opts.ChaosStats != nil {
		distOpts.ChaosStats = &distChaos
	}
	distOpts.Progress = nil
	if leaderKills > 0 {
		// Leader kills live in the chaos plan but are control-plane-only: they
		// never expand in the workers' (Shards-less) schedules, so the
		// single-process reference below stays a valid oracle.
		plan := chaos.Plan{Recoverable: true}
		if distOpts.Chaos != nil {
			plan = *distOpts.Chaos
		}
		plan.LeaderKills = leaderKills
		distOpts.Chaos = &plan
	}

	ds, err := runReplicaSet(ctx, cfg, distOpts, scenarioSpec, n, shards, replicas)
	if err != nil {
		return nil, err
	}

	fleet, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if scenarioSpec != "" {
		// The single-process reference must run the same scenario, rebuilt
		// from the spec string and bound to this regenerated fleet — exactly
		// what each fabric worker does, which is what makes the fingerprint
		// comparison meaningful.
		built, err := scenario.Build(scenarioSpec)
		if err != nil {
			return nil, err
		}
		wl, err := built.Bind(fleet)
		if err != nil {
			return nil, err
		}
		opts.Scenario = wl
	}
	ref, err := ebs.New(fleet).Run(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("single-process reference run: %w", err)
	}
	distFP, refFP := invariant.Fingerprint(ds), invariant.Fingerprint(ref)
	fmt.Printf("dist fingerprint   %s (%d workers, %d replicas)\n", distFP, n, replicas)
	fmt.Printf("single fingerprint %s\n", refFP)
	if distFP != refFP {
		return nil, fmt.Errorf("distributed run diverged from single-process run")
	}
	if opts.Stream != nil && distStream.Fingerprint() != opts.Stream.Fingerprint() {
		return nil, fmt.Errorf("distributed sketch state diverged from single-process run")
	}
	fmt.Println("distributed == single-process: byte-identical")
	return ds, nil
}

// runReplicaSet runs the in-process fabric over a replica set (one replica
// is the unreplicated control plane; more are consensus-backed): workers
// dial every replica and follow leader redirects, and any leader kills in
// opts.Chaos fire mid-run. It reports the leadership history so a kill's
// succession is visible in the smoke output.
func runReplicaSet(ctx context.Context, cfg workload.Config, opts ebs.Options, scenarioSpec string, n, shards, replicas int) (*trace.Dataset, error) {
	rs, err := fabric.NewReplicaSet(fabric.Config{Fleet: cfg, Opts: opts, Scenario: scenarioSpec, Shards: shards}, replicas)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	if sched := rs.Schedule(); sched != nil {
		fmt.Fprintf(os.Stderr, "ebssim: %d-replica control plane, %d leader kill(s) scheduled\n",
			replicas, len(sched.LeaderKills))
	} else {
		fmt.Fprintf(os.Stderr, "ebssim: %d-replica control plane\n", replicas)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = fabric.RunWorker(ctx, fabric.WorkerConfig{
				Dials:       rs.Dials(),
				CallTimeout: 2 * time.Second,
			})
		}(i)
	}
	ds, err := rs.Wait(ctx)
	if err != nil {
		return nil, err
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("fabric worker %d: %w", i, werr)
		}
	}
	if sched := rs.Schedule(); sched != nil && rs.KillsExecuted() != len(sched.LeaderKills) {
		return nil, fmt.Errorf("%d of %d scheduled leader kills fired", rs.KillsExecuted(), len(sched.LeaderKills))
	}
	var hist []string
	for _, tr := range rs.Transitions() {
		hist = append(hist, fmt.Sprintf("term %d -> replica %d", tr.Term, tr.Leader))
	}
	fmt.Fprintf(os.Stderr, "ebssim: leadership history: %s (%d kill(s) executed)\n",
		strings.Join(hist, ", "), rs.KillsExecuted())
	return ds, nil
}
