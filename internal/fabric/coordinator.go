// Package fabric is the distributed simulation control plane: a coordinator
// partitions the synthetic fleet into VD-disjoint shards, dispatches them to
// worker processes over the netblock protocol's fabric ops (JoinFleet,
// AssignShard, ShardResult, Heartbeat, Drain), and deterministically merges
// the shard partials into a dataset byte-identical to a single-process run —
// for any worker count, and across worker crashes, stragglers, and duplicate
// results. The shard ledger itself is a replicated state machine: with
// Replicas > 1 every mutation is committed through a consensus log before it
// takes effect, so a coordinator replica can die mid-run and a newly elected
// leader resumes from the identical ledger. See DESIGN.md, "Distributed
// execution" and "Control-plane replication".
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/consensus"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Config describes one distributed run.
type Config struct {
	// Fleet is the generation recipe, shipped to every worker.
	Fleet workload.Config
	// Opts are the run options. Coordinator-side destinations (Stream,
	// ChaosStats) are honored: the merged run fills them exactly like
	// ebs.Sim.Run would. Progress does not cross the wire.
	Opts ebs.Options
	// Scenario optionally names a scenario spec ("bufferbloat,period=16")
	// every worker binds to its regenerated fleet. The coordinator never
	// binds it — merging needs only the shard partials — so Opts.Scenario
	// must stay nil (it cannot be bound to the coordinator's internal fleet
	// from outside); NewCoordinator rejects it.
	Scenario string
	// Shards is how many shards to plan (0 = 4; more shards than workers
	// keeps the fleet busy when shard runtimes are uneven).
	Shards int
	// HeartbeatEvery is the beat interval workers are told to use
	// (default 500ms).
	HeartbeatEvery time.Duration
	// LivenessTimeout declares a silent worker dead and requeues its shards
	// (default 4 * HeartbeatEvery).
	LivenessTimeout time.Duration
	// SpeculateAfter re-dispatches a still-running shard to an idle worker
	// once the shard has been out that long (default 30s; straggler
	// mitigation). At-most-once accounting keeps duplicate results safe.
	SpeculateAfter time.Duration

	// ReplicaID is this coordinator's identity in the replica set, in
	// [0, Replicas). Replica 0 bootstraps as the initial leader.
	ReplicaID int
	// Replicas is the control-plane replica count (0 or 1 = unreplicated:
	// a single-node consensus group that commits inline, with no ticker
	// and no transport).
	Replicas int
	// Transport delivers consensus messages to peer replicas. Required when
	// Replicas > 1; ignored otherwise.
	Transport consensus.Transport
	// PeerAddrs optionally maps replica IDs to dialable addresses, included
	// in leader redirects so workers can jump straight to the leader.
	PeerAddrs []string
	// TickEvery is the consensus logical-clock interval (default 5ms when
	// Replicas > 1). Election and heartbeat spans are multiples of it.
	TickEvery time.Duration

	// now overrides the clock in tests. The leader stamps proposals with it;
	// replicas never read a clock of their own.
	now func() time.Time
	// onLeader fires when this replica wins (or bootstraps) leadership.
	onLeader func(term uint64, id int)
	// onApplied fires after each committed ledger command applies locally;
	// the replica set's chaos leader-kill trigger hangs here.
	onApplied func(kind uint8, reply any, leader bool)
}

const (
	// assignHold is how long an AssignShard request with nothing placeable
	// is held server-side waiting for availability to change (a result
	// landing, a shard requeuing) before the worker is told to back off and
	// retry. Event-driven wakeup keeps an idle worker from sleeping a full
	// WaitPoll after the run's last result arrives.
	assignHold = 50 * time.Millisecond
	// proposeTimeout bounds how long a control-plane request waits for its
	// ledger command to commit (typically exceeded only without a quorum).
	proposeTimeout = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.LivenessTimeout <= 0 {
		c.LivenessTimeout = 4 * c.HeartbeatEvery
	}
	if c.SpeculateAfter <= 0 {
		c.SpeculateAfter = 30 * time.Second
	}
	if c.Replicas <= 1 {
		c.Replicas = 1
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 5 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator runs the control plane. It implements netblock.Handler: mount
// it on a netblock.Server (NewHandlerServer) over any listener — TCP for
// real deployments, Loopback for in-process fabrics. Every ledger mutation
// is proposed to the consensus runner and applied only once committed; on a
// non-leader replica the fabric ops answer StatusRedirect so workers can
// find the leader.
type Coordinator struct {
	cfg    Config
	sim    *ebs.Sim
	fleet  *workload.Fleet
	plan   []cluster.ShardRange
	fsm    *ledgerFSM
	runner *consensus.Runner

	mergeOnce sync.Once
	result    *trace.Dataset
	mergeErr  error
}

// NewCoordinator generates the fleet, plans the shards, and returns a
// coordinator ready to be served.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	co, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	co.start()
	return co, nil
}

// newCoordinator builds a coordinator whose consensus clock is not yet
// running: until start, the replica sends nothing to its peers.
func newCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Opts.Scenario != nil {
		return nil, fmt.Errorf("fabric: set Config.Scenario (the spec string), not Opts.Scenario — workers bind the scenario to their own fleets")
	}
	if cfg.Scenario != "" {
		// Fail at construction, not on every worker: the spec must parse and
		// validate. The binding itself happens worker-side.
		if _, err := scenario.Build(cfg.Scenario); err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	if cfg.ReplicaID < 0 || cfg.ReplicaID >= cfg.Replicas {
		return nil, fmt.Errorf("fabric: replica ID %d outside the %d-replica set", cfg.ReplicaID, cfg.Replicas)
	}
	if cfg.Replicas > 1 && cfg.Transport == nil {
		return nil, fmt.Errorf("fabric: %d replicas need a consensus transport", cfg.Replicas)
	}
	fleet, err := workload.Generate(cfg.Fleet)
	if err != nil {
		return nil, fmt.Errorf("fabric: generate fleet: %w", err)
	}
	nVDs := len(fleet.Topology.VDs)
	if cfg.Opts.MaxVDs > 0 && cfg.Opts.MaxVDs < nVDs {
		nVDs = cfg.Opts.MaxVDs
	}
	plan := cluster.PlanShards(nVDs, cfg.Shards)
	if len(plan) == 0 {
		return nil, fmt.Errorf("fabric: nothing to plan (%d VDs)", nVDs)
	}
	co := &Coordinator{
		cfg:   cfg,
		sim:   ebs.New(fleet),
		fleet: fleet,
		plan:  plan,
		fsm:   newLedgerFSM(cfg, plan),
	}
	co.runner = consensus.NewRunner(consensus.RunnerConfig{
		Node: consensus.NewNode(consensus.Config{
			ID:              cfg.ReplicaID,
			Peers:           cfg.Replicas,
			BootstrapLeader: 0,
			Seed:            cfg.Fleet.Seed,
		}),
		FSM:            co.fsm,
		Transport:      cfg.Transport,
		OnBecomeLeader: cfg.onLeader,
		OnApply:        co.applied,
	})
	return co, nil
}

// start runs the consensus clock. Single-node groups commit inline and need
// no ticker goroutine.
func (co *Coordinator) start() {
	if co.cfg.Replicas > 1 {
		co.runner.Start(co.cfg.TickEvery)
	}
}

// applied adapts the runner's apply hook to the config's, surfacing the
// command kind so the replica set can watch for accepted results.
func (co *Coordinator) applied(cmd []byte, reply any, leader bool) {
	if co.cfg.onApplied == nil || len(cmd) == 0 {
		return
	}
	co.cfg.onApplied(cmd[0], reply, leader)
}

// Plan exposes the shard plan (for reporting).
func (co *Coordinator) Plan() []cluster.ShardRange { return co.plan }

// Stop shuts the replica down: the consensus runner stops, parked proposals
// fail, and every later control-plane request is rejected. This is both the
// orderly teardown and the chaos "kill this replica" primitive.
func (co *Coordinator) Stop() { co.runner.Stop() }

// Deliver feeds one consensus message into this replica (used by in-process
// replica sets; TCP deployments arrive through Handle instead).
func (co *Coordinator) Deliver(m consensus.Message) { co.runner.Deliver(m) }

// DoneCh is closed once every shard has an accepted result in this
// replica's ledger.
func (co *Coordinator) DoneCh() <-chan struct{} { return co.fsm.allDone }

// Handle implements netblock.Handler for the fabric control plane: the five
// worker-facing ops (proposed through the consensus log) plus the replica-
// to-replica consensus ops and the leader-discovery query.
func (co *Coordinator) Handle(req *netblock.Request) *netblock.Response {
	resp := &netblock.Response{ID: req.ID, Status: netblock.StatusOK}
	fail := func(err error) *netblock.Response {
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch req.Op {
	case netblock.OpRequestVote, netblock.OpAppendEntries:
		m, err := consensus.DecodeMessage(req.Payload)
		if err != nil {
			return fail(err)
		}
		co.runner.Deliver(*m)
		return resp // one-way: responses travel as their own messages
	case netblock.OpRedirectLeader:
		leader, _ := co.runner.LeaderInfo()
		resp.Payload = mustJSON(co.redirectFor(leader))
		return resp
	case netblock.OpJoinFleet:
		return co.propose(resp, command{Kind: cmdJoin})
	case netblock.OpAssignShard:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.holdAssign(resp, m.WorkerID)
	case netblock.OpShardResult:
		// No pre-validation: the FSM decodes the frame at apply time and a
		// malformed one comes back as an error reply (StatusError). Decoding
		// a shard result is the most expensive control-plane operation, so
		// doing it once — not once to validate and again to apply — is what
		// keeps the dispatch hot path at its unreplicated cost.
		return co.propose(resp, command{Kind: cmdResult, Frame: req.Payload})
	case netblock.OpHeartbeat:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.propose(resp, command{Kind: cmdHeartbeat, Worker: m.WorkerID})
	case netblock.OpDrain:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.propose(resp, command{Kind: cmdDrain, Worker: m.WorkerID})
	default:
		return fail(fmt.Errorf("fabric: op %s is not a control-plane request", req.Op))
	}
}

// holdAssign proposes the assign and, when the ledger has nothing placeable,
// holds the reply instead of bouncing AssignWait straight back: it parks on
// the FSM's availability pulse and re-proposes the moment a result lands or
// a shard requeues, up to assignHold. An idle worker at the tail of a
// run gets its AssignDone (or the freed shard) with sub-millisecond latency
// instead of discovering it a WaitPoll later — which is the difference
// between the dispatch benchmark's p50 and a 25ms sleep. Only this handler
// goroutine blocks; redirects, errors, and replica shutdown all break out.
func (co *Coordinator) holdAssign(resp *netblock.Response, workerID uint64) *netblock.Response {
	// The hold timer is allocated lazily: most assigns place a shard on the
	// first try and never park, and this path runs once per shard.
	var hold *time.Timer
	defer func() {
		if hold != nil {
			hold.Stop()
		}
	}()
	for {
		// Grab the pulse channel before proposing: any availability change
		// after our command applies closes this channel, so a wakeup can
		// never slip between the apply and the park.
		avail := co.fsm.avail.wait()
		reply, err := co.proposeRaw(command{Kind: cmdAssign, Worker: workerID})
		a, isAssign := reply.(AssignReply)
		if err != nil || !isAssign || a.Status != AssignWait {
			return co.render(resp, reply, err) // shard, done, redirect, or error
		}
		if hold == nil {
			hold = time.NewTimer(assignHold)
		}
		select {
		case <-avail:
		case <-hold.C:
			return co.render(resp, reply, nil)
		case <-co.runner.Done():
			// Replica stopping: hand the wait back, the worker fails over.
			return co.render(resp, reply, nil)
		}
	}
}

// proposeRaw stamps the command with the leader clock and commits it through
// the consensus log, returning the FSM's reply unrendered.
func (co *Coordinator) proposeRaw(c command) (any, error) {
	c.At = co.cfg.now().UnixNano()
	return co.runner.Propose(encodeCommand(&c), proposeTimeout)
}

// propose commits the command and renders the FSM's reply. On a non-leader
// replica the response is a StatusRedirect carrying the leader hint, so the
// worker can re-aim instead of stalling.
func (co *Coordinator) propose(resp *netblock.Response, c command) *netblock.Response {
	reply, err := co.proposeRaw(c)
	return co.render(resp, reply, err)
}

// render turns a proposal outcome into the wire response.
func (co *Coordinator) render(resp *netblock.Response, reply any, err error) *netblock.Response {
	if err != nil {
		var nle *consensus.NotLeaderError
		if errors.As(err, &nle) {
			resp.Status = netblock.StatusRedirect
			resp.Payload = mustJSON(co.redirectFor(nle.Leader))
			return resp
		}
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch v := reply.(type) {
	case error:
		resp.Status = netblock.StatusError
		resp.Payload = []byte(v.Error())
	case nil: // cmdDrain wants no payload
	default:
		resp.Payload = mustJSON(v)
	}
	return resp
}

// redirectFor builds the redirect payload for a hinted leader ID.
func (co *Coordinator) redirectFor(leader int) RedirectReply {
	r := RedirectReply{Leader: leader, Known: leader != consensus.None}
	if r.Known && leader < len(co.cfg.PeerAddrs) {
		r.Addr = co.cfg.PeerAddrs[leader]
	}
	return r
}

// Done reports whether every shard has an accepted result.
func (co *Coordinator) Done() bool {
	var done bool
	co.runner.Read(func() { done = co.fsm.remaining == 0 })
	return done
}

// Workers returns how many workers are currently registered.
func (co *Coordinator) Workers() int {
	var n int
	co.runner.Read(func() { n = len(co.fsm.workers) })
	return n
}

// LeaderInfo exposes the replica's current leader hint and whether this
// replica is that leader.
func (co *Coordinator) LeaderInfo() (leader int, isLeader bool) {
	return co.runner.LeaderInfo()
}

// Ledger snapshots the dispatch/result accounting for the cross-process
// conservation law.
func (co *Coordinator) Ledger() *invariant.ShardLedger {
	var l *invariant.ShardLedger
	co.runner.Read(func() { l = co.fsm.ledger() })
	return l
}

// SketchSnapshot merges the sketch state of every shard result accepted so
// far into a fresh set, reporting how many virtual disks it covers. This is
// the distributed analogue of ebs.SnapshotSink: the gateway serves it to
// tenants streaming a fabric-run study mid-flight. Ledger partials are
// immutable once accepted, so they are re-encoded under the runner's lock
// and merged from decoded copies outside it — the ledger is never mutated.
// Before any result lands it returns (nil, 0, nil). Streaming runs only;
// without Options.Stream the partials carry no sketch state and the
// snapshot stays empty.
func (co *Coordinator) SketchSnapshot() (*sketch.Set, int, error) {
	var encs [][]byte
	var vds int
	co.runner.Read(func() {
		for _, sh := range co.fsm.shards {
			if sh.partial != nil && sh.partial.Sketch != nil {
				encs = append(encs, sh.partial.Sketch.EncodeBinary())
				vds += sh.r.Hi - sh.r.Lo
			}
		}
	})
	if len(encs) == 0 {
		return nil, 0, nil
	}
	var merged *sketch.Set
	for _, enc := range encs {
		set, err := sketch.DecodeSet(enc)
		if err != nil {
			return nil, 0, fmt.Errorf("fabric: snapshot: %w", err)
		}
		if merged == nil {
			merged = sketch.NewSet(set.Config())
		}
		merged.Merge(set)
	}
	return merged, vds, nil
}

// Wait blocks until every shard is accounted for (or ctx ends), then merges
// the partials — verifying the fabric accounting law first — and returns the
// final dataset. The merge runs once; concurrent and repeated Waits share
// its result. Any replica whose ledger reached completion can merge: the
// partials were committed through the log, so they are byte-identical
// everywhere.
func (co *Coordinator) Wait(ctx context.Context) (*trace.Dataset, error) {
	select {
	case <-co.fsm.allDone:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	co.mergeOnce.Do(func() {
		var rep invariant.Report
		invariant.CheckFabricAccounting(&rep, co.Ledger())
		if err := rep.Err(); err != nil {
			co.mergeErr = fmt.Errorf("fabric: %w", err)
			return
		}
		parts := make([]*ebs.ShardPartial, 0, len(co.plan))
		co.runner.Read(func() {
			for _, sh := range co.fsm.shards {
				parts = append(parts, sh.partial)
			}
		})
		co.result, co.mergeErr = co.sim.MergeShards(co.cfg.Opts, parts)
	})
	return co.result, co.mergeErr
}
