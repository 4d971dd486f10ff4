package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// FabricConfig tells the gateway to execute studies on an in-process fabric
// instead of calling ebs.Run directly: each granted study gets its own
// replica set and worker pool over loopback transports. Replicas >= 2 is
// what makes chaos leader-kill studies (StudySpec.LeaderKills) admissible.
type FabricConfig struct {
	// Replicas is the control-plane replica count per study (default 1).
	Replicas int
	// Workers is the worker count per study (default 1).
	Workers int
	// Shards overrides the fabric shard count when the study spec leaves
	// Shards zero.
	Shards int
}

// Config shapes one gateway.
type Config struct {
	// MaxConcurrent bounds how many studies run at once (default 1).
	MaxConcurrent int
	// SubmitRate and SubmitBurst are the per-tenant token-bucket cap on
	// study starts: rate in grants/sec, burst the bank (default 1 when a
	// rate is set). Rate 0 means uncapped. An over-cap submission is
	// QUEUED behind the tenant's bucket, never dropped — the same
	// queue-don't-drop discipline internal/throttle applies to IOs.
	SubmitRate  float64
	SubmitBurst float64
	// MaxQueuedPerTenant is the admission bound: a submission arriving at
	// a tenant whose queue is already this deep is rejected (default 16).
	MaxQueuedPerTenant int
	// WeightOf sets per-tenant weighted-fair-queueing weights (default 1).
	// A weight-2 tenant drains its backlog twice as fast as a weight-1
	// tenant under contention.
	WeightOf map[string]float64
	// Fabric, when non-nil, executes studies on an in-process fabric.
	Fabric *FabricConfig
	// Now overrides the clock (tests pass testclock.Clock.Now). With a
	// fake clock the gateway never arms wall timers — after advancing the
	// clock, call Poke to re-run admission.
	Now func() time.Time
	// OnProgress, when non-nil, fires as a granted study progresses:
	// per completed virtual disk for local execution, per accepted shard
	// for fabric execution. Calls come from run goroutines; keep it cheap
	// or fully synchronous (the e2e tests hang mid-run snapshot probes
	// here precisely because it is deterministic).
	OnProgress func(study uint64, done, total int)
}

// Grant is one scheduler decision: tenant, study, and when (seconds since
// the gateway started).
type Grant struct {
	Tenant string
	Study  uint64
	AtSec  float64
}

// Admission is one admission decision, in arrival order. Decision is
// "queued", "rejected", or "deduped".
type Admission struct {
	Tenant   string
	Study    uint64 `json:",omitempty"`
	Decision string
	AtSec    float64
}

type tenant struct {
	name     string
	weight   float64
	bucket   *throttle.TokenBucket // nil: no submission cap
	queue    []*job
	pass     float64 // WFQ virtual finish time
	ledger   invariant.StudyLedger
	grantsAt []float64
}

type job struct {
	id     uint64
	tenant string
	spec   StudySpec // normalized
	key    string

	// Mutable lifecycle state, guarded by Gateway.mu.
	state    uint8
	canceled bool
	errMsg   string
	cancel   context.CancelFunc
	ctx      context.Context

	// Snapshot sources. sink serves local runs; rs fabric runs. snapMu
	// serializes fabric snapshot reads against the final ledger merge,
	// which consumes the shard partials' sketch state.
	sink   *ebs.SnapshotSink
	rs     *fabric.ReplicaSet
	snapMu sync.Mutex

	vdsDone  atomic.Int64
	vdsTotal atomic.Int64

	// Final answers, set under Gateway.mu when the study completes.
	dsFP         string // invariant.Fingerprint of the dataset
	sketchFP     string // final Options.Stream fingerprint
	streamFP     string // final snapshot-path fingerprint (== sketchFP)
	finalSketch  []byte
	finalSeq     uint64
	kills        int
	ctlFP        string // control decision-log fingerprint (controlled studies)
	ctlDecisions int

	done chan struct{}
}

// Gateway is the always-on serving plane. It implements netblock.Handler:
// mount it with netblock.NewHandlerServer over any listener — TCP for real
// deployments, fabric.Loopback for in-process harnesses. All methods are
// safe for concurrent use.
type Gateway struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	closed  bool
	nextID  uint64
	tenants map[string]*tenant
	names   []string // sorted; deterministic WFQ tie-break order
	byID    map[uint64]*job
	results map[string]*job // completed studies by content address
	ledger  invariant.StudyLedger
	grants  []Grant
	adms    []Admission
	running int
	vtime   float64
	changed chan struct{}
	timer   *time.Timer

	runWG sync.WaitGroup
}

// New builds a gateway. Close releases it.
func New(cfg Config) *Gateway {
	gw := &Gateway{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		byID:    make(map[uint64]*job),
		results: make(map[string]*job),
		changed: make(chan struct{}),
	}
	gw.start = gw.now()
	return gw
}

func (gw *Gateway) now() time.Time {
	if gw.cfg.Now != nil {
		return gw.cfg.Now()
	}
	return time.Now()
}

// bumpLocked wakes every Wait-er; call with mu held after any state change.
func (gw *Gateway) bumpLocked() {
	close(gw.changed)
	gw.changed = make(chan struct{})
}

func (gw *Gateway) tenantLocked(name string, now time.Time) *tenant {
	tn := gw.tenants[name]
	if tn != nil {
		return tn
	}
	tn = &tenant{name: name, weight: 1}
	if w := gw.cfg.WeightOf[name]; w > 0 {
		tn.weight = w
	}
	if gw.cfg.SubmitRate > 0 {
		burst := gw.cfg.SubmitBurst
		if burst <= 0 {
			burst = 1
		}
		tn.bucket = throttle.NewTokenBucket(gw.cfg.SubmitRate, burst, now)
	}
	gw.tenants[name] = tn
	gw.names = append(gw.names, name)
	sort.Strings(gw.names)
	return tn
}

// Submit admits one study. The reply carries the study ID to poll; a
// rejection (tenant queue at its admission bound, malformed spec, gateway
// closed) is an error. Over-cap-rate submissions are NOT errors: they queue
// behind the tenant's token bucket and start when it refills.
func (gw *Gateway) Submit(tenantName string, spec StudySpec) (SubmitReply, error) {
	if n := len(tenantName); n == 0 || n > maxTenantLen {
		return SubmitReply{}, fmt.Errorf("gateway: tenant name length %d, want [1, %d]", n, maxTenantLen)
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return SubmitReply{}, err
	}
	if spec.LeaderKills > 0 {
		fc := gw.cfg.Fabric
		if fc == nil || fc.Replicas < 2 {
			return SubmitReply{}, fmt.Errorf("gateway: leader-kill studies need a replicated fabric (this gateway runs %s)", gw.fabricDesc())
		}
		if max := (fc.Replicas - 1) / 2; spec.LeaderKills > max {
			return SubmitReply{}, fmt.Errorf("gateway: a %d-replica fabric survives at most %d leader kills", fc.Replicas, max)
		}
	}
	now := gw.now()
	key := spec.key()

	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.closed {
		return SubmitReply{}, errors.New("gateway: closed")
	}
	at := now.Sub(gw.start).Seconds()
	tn := gw.tenantLocked(tenantName, now)
	if prev := gw.results[key]; prev != nil {
		gw.ledger.Deduped++
		tn.ledger.Deduped++
		gw.adms = append(gw.adms, Admission{Tenant: tenantName, Study: prev.id, Decision: "deduped", AtSec: at})
		return SubmitReply{StudyID: prev.id, State: StateName(StateDone), Deduped: true}, nil
	}
	depth := gw.cfg.MaxQueuedPerTenant
	if depth <= 0 {
		depth = 16
	}
	if len(tn.queue) >= depth {
		gw.ledger.Rejected++
		tn.ledger.Rejected++
		gw.adms = append(gw.adms, Admission{Tenant: tenantName, Decision: "rejected", AtSec: at})
		return SubmitReply{}, fmt.Errorf("gateway: tenant %q queue full (%d queued)", tenantName, len(tn.queue))
	}
	gw.nextID++
	j := &job{
		id:     gw.nextID,
		tenant: tenantName,
		spec:   spec,
		key:    key,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	gw.byID[j.id] = j
	if len(tn.queue) == 0 && tn.pass < gw.vtime {
		// A tenant re-entering the backlog starts at the current virtual
		// time: it cannot bank credit from its idle period.
		tn.pass = gw.vtime
	}
	tn.queue = append(tn.queue, j)
	gw.ledger.Submitted++
	tn.ledger.Submitted++
	gw.ledger.Queued++
	tn.ledger.Queued++
	gw.adms = append(gw.adms, Admission{Tenant: tenantName, Study: j.id, Decision: "queued", AtSec: at})
	gw.scheduleLocked(now)
	gw.bumpLocked()
	return SubmitReply{StudyID: j.id, State: StateName(j.state)}, nil
}

func (gw *Gateway) fabricDesc() string {
	if gw.cfg.Fabric == nil {
		return "in-process execution"
	}
	return fmt.Sprintf("%d replica(s)", gw.cfg.Fabric.Replicas)
}

// scheduleLocked grants run slots: while a slot is free, pick the
// lowest-virtual-time tenant (ties broken by name) whose queue is non-empty
// and whose token bucket has a grant banked, charge the bucket, and start
// the head study. Stride scheduling — each grant advances the tenant's
// virtual time by 1/weight — is what bounds any backlogged tenant's share
// to its weight within one grant.
func (gw *Gateway) scheduleLocked(now time.Time) {
	maxc := gw.cfg.MaxConcurrent
	if maxc <= 0 {
		maxc = 1
	}
	for gw.running < maxc && !gw.closed {
		var best *tenant
		for _, name := range gw.names {
			tn := gw.tenants[name]
			if len(tn.queue) == 0 {
				continue
			}
			if tn.bucket != nil && tn.bucket.Tokens(now) < 1 {
				continue
			}
			if best == nil || tn.pass < best.pass {
				best = tn
			}
		}
		if best == nil {
			break
		}
		if best.bucket != nil {
			best.bucket.Take(now)
		}
		j := best.queue[0]
		best.queue = best.queue[1:]
		gw.vtime = best.pass
		best.pass += 1 / best.weight
		at := now.Sub(gw.start).Seconds()
		gw.grants = append(gw.grants, Grant{Tenant: best.name, Study: j.id, AtSec: at})
		best.grantsAt = append(best.grantsAt, at)
		gw.ledger.Queued--
		best.ledger.Queued--
		gw.ledger.Granted++
		best.ledger.Granted++
		gw.ledger.Running++
		best.ledger.Running++
		j.state = StateRunning
		j.ctx, j.cancel = context.WithCancel(context.Background())
		gw.running++
		gw.runWG.Add(1)
		go gw.runJob(j)
	}
	gw.armTimerLocked(now)
}

// armTimerLocked schedules a wall-clock re-kick at the earliest token refill
// among gated backlogged tenants. Fake-clock gateways (cfg.Now set) never arm
// timers; tests drive re-admission with Poke.
func (gw *Gateway) armTimerLocked(now time.Time) {
	if gw.cfg.Now != nil || gw.closed {
		return
	}
	var earliest time.Time
	for _, tn := range gw.tenants {
		if len(tn.queue) == 0 || tn.bucket == nil || tn.bucket.Tokens(now) >= 1 {
			continue
		}
		na := tn.bucket.NextAt(now)
		if na.IsZero() {
			continue
		}
		if earliest.IsZero() || na.Before(earliest) {
			earliest = na
		}
	}
	if gw.timer != nil {
		gw.timer.Stop()
		gw.timer = nil
	}
	if earliest.IsZero() {
		return
	}
	d := earliest.Sub(now)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	gw.timer = time.AfterFunc(d, gw.Poke)
}

// Poke re-runs admission against the current clock. Call it after advancing
// a fake clock; real-clock gateways poke themselves via refill timers.
func (gw *Gateway) Poke() {
	now := gw.now()
	gw.mu.Lock()
	if !gw.closed {
		gw.scheduleLocked(now)
	}
	gw.bumpLocked()
	gw.mu.Unlock()
}

// runJob executes one granted study and settles its terminal state.
func (gw *Gateway) runJob(j *job) {
	defer gw.runWG.Done()
	var err error
	if gw.cfg.Fabric != nil {
		err = gw.runFabric(j)
	} else {
		err = gw.runLocal(j)
	}
	now := gw.now()
	gw.mu.Lock()
	tn := gw.tenants[j.tenant]
	gw.running--
	gw.ledger.Running--
	tn.ledger.Running--
	switch {
	case j.canceled:
		j.state = StateCanceled
		gw.ledger.CanceledRunning++
		tn.ledger.CanceledRunning++
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		gw.ledger.Failed++
		tn.ledger.Failed++
	default:
		j.state = StateDone
		gw.results[j.key] = j
		gw.ledger.Completed++
		tn.ledger.Completed++
	}
	j.cancel()
	gw.scheduleLocked(now)
	gw.bumpLocked()
	gw.mu.Unlock()
	close(j.done)
}

// runLocal executes the study in-process: ebs.Run with a streaming sketch
// destination plus a SnapshotSink serving incremental mid-run state.
func (gw *Gateway) runLocal(j *job) error {
	fleet, err := workload.Generate(j.spec.FleetConfig())
	if err != nil {
		return err
	}
	stream := sketch.NewSet(sketch.Config{})
	sink := &ebs.SnapshotSink{}
	gw.mu.Lock()
	j.sink = sink
	gw.mu.Unlock()
	opts := j.spec.RunOptions()
	opts.Stream = stream
	opts.Snapshots = sink
	if opts.Scenario, err = j.spec.BindScenario(fleet); err != nil {
		return err
	}
	opts.Progress = func(done, total int) {
		j.vdsTotal.Store(int64(total))
		j.vdsDone.Store(int64(done))
		if gw.cfg.OnProgress != nil {
			gw.cfg.OnProgress(j.id, done, total)
		}
	}
	sim := ebs.New(fleet)
	var ds *trace.Dataset
	if j.spec.Control != "" {
		// Controlled study: the full predict→act loop. The observe pass
		// is traffic-only and calls no hook (RunControlled's hooks
		// belong to the actuated pass), so the sink and the progress
		// counters see only the run the tenant's answer comes from.
		pol, err := control.ByName(j.spec.Control)
		if err != nil {
			return err
		}
		var plan *control.Plan
		ds, plan, err = sim.RunControlled(j.ctx, opts, pol, control.Config{EpochSec: j.spec.ControlEpochSec})
		if err != nil {
			return err
		}
		gw.mu.Lock()
		j.ctlFP = plan.LogFingerprint()
		j.ctlDecisions = len(plan.Decisions)
		gw.mu.Unlock()
	} else {
		var err error
		ds, err = sim.Run(j.ctx, opts)
		if err != nil {
			return err
		}
	}
	enc, _, seq := sink.Snapshot()
	gw.mu.Lock()
	j.dsFP = invariant.Fingerprint(ds)
	j.sketchFP = stream.Fingerprint()
	j.streamFP = sink.Fingerprint()
	j.finalSketch = enc
	j.finalSeq = seq
	gw.mu.Unlock()
	return nil
}

// runFabric executes the study on its own in-process fabric: a replica set
// (with chaos leader kills when the spec asks for them) plus a worker pool
// over loopback transports. Mid-run snapshots merge the accepted shard
// partials; the final answer must match what ebs.Run would have produced.
func (gw *Gateway) runFabric(j *job) error {
	// The control loop is sequential over epochs, so controlled studies run
	// in-process even on a fabric-backed gateway (admission already pinned
	// Shards and LeaderKills to zero for them).
	if j.spec.Control != "" {
		return gw.runLocal(j)
	}
	fc := *gw.cfg.Fabric
	if fc.Replicas < 1 {
		fc.Replicas = 1
	}
	if fc.Workers < 1 {
		fc.Workers = 1
	}
	shards := j.spec.Shards
	if shards == 0 {
		shards = fc.Shards
	}
	stream := sketch.NewSet(sketch.Config{})
	opts := j.spec.RunOptions()
	opts.Stream = stream
	if j.spec.LeaderKills > 0 {
		// Leader kills are control-plane-only chaos: they never reach
		// worker schedules, so the no-chaos oracle stays valid.
		opts.Chaos = &chaos.Plan{Recoverable: true, LeaderKills: j.spec.LeaderKills}
	}
	rs, err := fabric.NewReplicaSet(fabric.Config{Fleet: j.spec.FleetConfig(), Opts: opts, Scenario: j.spec.Scenario, Shards: shards}, fc.Replicas)
	if err != nil {
		return err
	}
	defer rs.Close()
	plan := rs.Coordinator(0).Plan()
	j.vdsTotal.Store(int64(plan[len(plan)-1].Hi))
	nShards := len(plan)
	rs.OnAccepted = func(n int) {
		if gw.cfg.OnProgress != nil {
			gw.cfg.OnProgress(j.id, n, nShards)
		}
	}
	gw.mu.Lock()
	j.rs = rs
	gw.mu.Unlock()

	var wg sync.WaitGroup
	workerErrs := make([]error, fc.Workers)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = fabric.RunWorker(j.ctx, fabric.WorkerConfig{
				Dials:       rs.Dials(),
				CallTimeout: 2 * time.Second,
			})
		}(i)
	}

	// Wait for ledger completion WITHOUT merging: the final streamed
	// snapshot must be captured from the immutable partials before
	// rs.Wait's merge consumes their sketch state.
	doneAny := make(chan struct{})
	var once sync.Once
	for i := 0; i < fc.Replicas; i++ {
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				once.Do(func() { close(doneAny) })
			case <-j.ctx.Done():
			}
		}(rs.Coordinator(i).DoneCh())
	}
	select {
	case <-doneAny:
	case <-j.ctx.Done():
		rs.Close()
		wg.Wait()
		return j.ctx.Err()
	}

	var streamFP string
	var finalVDs int
	if set, vds, serr := rs.SketchSnapshot(); serr == nil && set != nil {
		streamFP = set.Fingerprint()
		finalVDs = vds
	}

	// The merge consumes the partials' sketch state; snapMu keeps any
	// in-flight snapshot RPC ordered strictly before it, and the final
	// fields are published inside the same critical section so a snapshot
	// arriving after the merge serves the stored final state.
	j.snapMu.Lock()
	ds, err := rs.Wait(j.ctx)
	if err == nil {
		gw.mu.Lock()
		j.rs = nil
		j.dsFP = invariant.Fingerprint(ds)
		j.sketchFP = stream.Fingerprint()
		j.streamFP = streamFP
		j.finalSketch = stream.EncodeBinary()
		j.finalSeq = uint64(finalVDs)
		j.kills = rs.KillsExecuted()
		gw.mu.Unlock()
	}
	j.snapMu.Unlock()
	if err != nil {
		rs.Close()
		wg.Wait()
		return err
	}
	// Let the workers observe AssignDone and drain against the still-open
	// control plane; the deferred rs.Close tears the listeners down after.
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return fmt.Errorf("gateway: fabric worker %d: %w", i, werr)
		}
	}
	if sched := rs.Schedule(); sched != nil && rs.KillsExecuted() != len(sched.LeaderKills) {
		return fmt.Errorf("gateway: %d of %d scheduled leader kills fired", rs.KillsExecuted(), len(sched.LeaderKills))
	}
	return nil
}

// Status reports one study's lifecycle view.
func (gw *Gateway) Status(id uint64) (StatusReply, error) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	j := gw.byID[id]
	if j == nil {
		return StatusReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	rep := StatusReply{
		StudyID:   j.id,
		Tenant:    j.tenant,
		State:     StateName(j.state),
		VDsDone:   int(j.vdsDone.Load()),
		VDsTotal:  int(j.vdsTotal.Load()),
		DatasetFP: j.dsFP,
		SketchFP:  j.sketchFP,
		Kills:     j.kills,
		Error:     j.errMsg,

		ControlLogFP:     j.ctlFP,
		ControlDecisions: j.ctlDecisions,
	}
	if j.state == StateQueued {
		for i, q := range gw.tenants[j.tenant].queue {
			if q == j {
				rep.QueuePos = i
				break
			}
		}
	}
	return rep, nil
}

// Snapshot serves the study's current streamed sketch state: the sink's
// folded deltas for local execution, the merged accepted shard partials for
// fabric execution, or the stored final state once the study completes.
func (gw *Gateway) Snapshot(id uint64) (SnapshotReply, error) {
	gw.mu.Lock()
	j := gw.byID[id]
	if j == nil {
		gw.mu.Unlock()
		return SnapshotReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	rep := SnapshotReply{
		StudyID:  j.id,
		State:    j.state,
		VDsDone:  uint32(j.vdsDone.Load()),
		VDsTotal: uint32(j.vdsTotal.Load()),
	}
	if j.finalSketch != nil || j.state == StateQueued || j.state == StateFailed || j.state == StateCanceled {
		rep.Sketch = j.finalSketch
		rep.SketchFP = j.streamFP
		rep.Seq = j.finalSeq
		gw.mu.Unlock()
		return rep, nil
	}
	sink, rs := j.sink, j.rs
	gw.mu.Unlock()

	switch {
	case rs != nil:
		j.snapMu.Lock()
		// Re-check: the run may have completed (and merged) while this
		// request waited on snapMu; the partials are no longer readable
		// but the final state is published.
		gw.mu.Lock()
		if j.finalSketch != nil {
			rep.State = j.state
			rep.Sketch = j.finalSketch
			rep.SketchFP = j.streamFP
			rep.Seq = j.finalSeq
			rep.VDsDone = uint32(j.vdsDone.Load())
			gw.mu.Unlock()
			j.snapMu.Unlock()
			return rep, nil
		}
		gw.mu.Unlock()
		set, vds, err := rs.SketchSnapshot()
		j.snapMu.Unlock()
		if err != nil {
			return SnapshotReply{}, err
		}
		if set != nil {
			rep.Sketch = set.EncodeBinary()
			rep.SketchFP = set.Fingerprint()
			rep.Seq = uint64(vds)
			rep.VDsDone = uint32(vds)
		}
	case sink != nil:
		enc, vds, seq := sink.Snapshot()
		if enc != nil {
			rep.Sketch = enc
			rep.SketchFP = sink.Fingerprint()
			rep.Seq = seq
			rep.VDsDone = uint32(vds)
		}
	}
	return rep, nil
}

// Cancel cancels one study: a queued study leaves its tenant queue
// immediately, a running study has its context canceled and settles as
// canceled when the run returns. Terminal studies are left untouched.
func (gw *Gateway) Cancel(id uint64) (CancelReply, error) {
	gw.mu.Lock()
	j := gw.byID[id]
	if j == nil {
		gw.mu.Unlock()
		return CancelReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	var cancel context.CancelFunc
	switch j.state {
	case StateQueued:
		tn := gw.tenants[j.tenant]
		for i, q := range tn.queue {
			if q == j {
				tn.queue = append(tn.queue[:i], tn.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		gw.ledger.Queued--
		tn.ledger.Queued--
		gw.ledger.CanceledQueued++
		tn.ledger.CanceledQueued++
		close(j.done)
		gw.bumpLocked()
	case StateRunning:
		if !j.canceled {
			j.canceled = true
			cancel = j.cancel
		}
	}
	state := StateName(j.state)
	gw.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return CancelReply{State: state}, nil
}

// Stats reports one tenant's ledger, token balance, and grant log.
func (gw *Gateway) Stats(tenantName string) (TenantStats, error) {
	now := gw.now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	tn := gw.tenants[tenantName]
	if tn == nil {
		return TenantStats{}, fmt.Errorf("gateway: no tenant %q", tenantName)
	}
	st := TenantStats{
		Tenant:          tenantName,
		Submitted:       tn.ledger.Submitted,
		Rejected:        tn.ledger.Rejected,
		Deduped:         tn.ledger.Deduped,
		Granted:         tn.ledger.Granted,
		Completed:       tn.ledger.Completed,
		Failed:          tn.ledger.Failed,
		CanceledQueued:  tn.ledger.CanceledQueued,
		CanceledRunning: tn.ledger.CanceledRunning,
		Queued:          tn.ledger.Queued,
		Running:         tn.ledger.Running,
		GrantsAtSec:     append([]float64(nil), tn.grantsAt...),
	}
	if tn.bucket != nil {
		st.Tokens = tn.bucket.Tokens(now)
	}
	return st, nil
}

// Ledger snapshots the gateway-wide study accounting (the
// invariant.CheckGatewayAccounting subject).
func (gw *Gateway) Ledger() invariant.StudyLedger {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.ledger
}

// TenantLedger snapshots one tenant's accounting.
func (gw *Gateway) TenantLedger(name string) (invariant.StudyLedger, bool) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	tn := gw.tenants[name]
	if tn == nil {
		return invariant.StudyLedger{}, false
	}
	return tn.ledger, true
}

// Grants snapshots the scheduler's grant log.
func (gw *Gateway) Grants() []Grant {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]Grant(nil), gw.grants...)
}

// Admissions snapshots the admission log.
func (gw *Gateway) Admissions() []Admission {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]Admission(nil), gw.adms...)
}

// Wait blocks until the gateway is idle — no queued and no running studies —
// or ctx ends. A tenant gated behind an empty token bucket counts as queued:
// on a fake clock, advance it and Poke.
func (gw *Gateway) Wait(ctx context.Context) error {
	for {
		gw.mu.Lock()
		idle := gw.ledger.Queued == 0 && gw.ledger.Running == 0
		ch := gw.changed
		gw.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close shuts the gateway down: new submissions are refused, queued studies
// are canceled, running studies have their contexts canceled, and Close
// returns once every run goroutine has settled. Callers wanting a graceful
// drain call Wait first.
func (gw *Gateway) Close() {
	gw.mu.Lock()
	if gw.closed {
		gw.mu.Unlock()
		gw.runWG.Wait()
		return
	}
	gw.closed = true
	if gw.timer != nil {
		gw.timer.Stop()
		gw.timer = nil
	}
	var cancels []context.CancelFunc
	for _, tn := range gw.tenants {
		for _, j := range tn.queue {
			j.state = StateCanceled
			gw.ledger.Queued--
			tn.ledger.Queued--
			gw.ledger.CanceledQueued++
			tn.ledger.CanceledQueued++
			close(j.done)
		}
		tn.queue = nil
	}
	for _, j := range gw.byID {
		if j.state == StateRunning && !j.canceled {
			j.canceled = true
			cancels = append(cancels, j.cancel)
		}
	}
	gw.bumpLocked()
	gw.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	gw.runWG.Wait()
}

// Handle implements netblock.Handler for the five gateway ops.
func (gw *Gateway) Handle(req *netblock.Request) *netblock.Response {
	resp := &netblock.Response{ID: req.ID, Status: netblock.StatusOK}
	fail := func(err error) *netblock.Response {
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch req.Op {
	case netblock.OpSubmitStudy:
		sub, err := DecodeSubmit(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Submit(sub.Tenant, sub.Spec)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpStudyStatus:
		var m StatusRequest
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		reply, err := gw.Status(m.StudyID)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpStreamSnapshot:
		id, err := DecodeSnapshotRequest(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Snapshot(id)
		if err != nil {
			return fail(err)
		}
		resp.Payload = EncodeSnapshotReply(reply)
	case netblock.OpCancelStudy:
		var m CancelRequest
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		reply, err := gw.Cancel(m.StudyID)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpTenantStats:
		var m StatsRequest
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		reply, err := gw.Stats(m.Tenant)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	default:
		return fail(fmt.Errorf("gateway: op %s is not a gateway request", req.Op))
	}
	return resp
}
