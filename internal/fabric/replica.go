package fabric

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/consensus"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

// ReplicaSet runs N coordinator replicas in-process, each served over its
// own Loopback listener, wired together by a synchronous consensus fan.
// Workers dial any replica (Dials) and are redirected to the leader. The
// set consumes the chaos plan's leader-kill windows: when the replicated
// ledger accepts its AfterResults-th shard result, whichever replica leads
// is killed — runner stopped, listener closed — and the run must complete
// under a successor with a byte-identical dataset.
type ReplicaSet struct {
	n    int
	cos  []*Coordinator
	lbs  []*Loopback
	srvs []*netblock.Server
	// sched is the expanded chaos schedule (nil without a plan); its
	// LeaderKills drive the kill queue.
	sched *chaos.Schedule

	// OnAccepted, when set before any worker joins, fires after the acting
	// leader's ledger applies each accepted shard result, with that
	// replica's accepted total. The gateway's test harness hangs its
	// deterministic mid-study progress observation here.
	OnAccepted func(total int)

	mu          sync.Mutex
	transitions []invariant.LeaderTransition
	kills       []chaos.LeaderKill
	nextKill    int
	counts      []int // accepted results applied, per replica
	killed      []bool
	killWG      sync.WaitGroup
	closeOnce   sync.Once
}

// replicaFan is the in-process consensus transport: Send delivers the
// message synchronously into the destination replica. Synchronous delivery
// keeps every follower's log flush with the leader at the instant a kill
// fires, which is what makes the post-kill election order (and so the
// golden leadership-transition log) deterministic. No lock is held across
// Send — the consensus runner emits messages outside its lock — so the
// delivery chain cannot deadlock.
type replicaFan struct {
	rs *ReplicaSet
}

func (f *replicaFan) Send(m consensus.Message) {
	if m.To < 0 || m.To >= f.rs.n {
		return
	}
	f.rs.cos[m.To].Deliver(m) // no-op on a stopped (killed) replica
}

// NewReplicaSet builds and serves `replicas` coordinator replicas of cfg.
// cfg's replication fields (ReplicaID, Replicas, Transport) are overwritten
// per replica; everything else — fleet, options, shard plan, liveness knobs —
// is shared, which is what makes every replica's FSM identical. No replica's
// consensus clock starts until every replica is built, so the fan never
// addresses a replica that does not exist yet.
func NewReplicaSet(cfg Config, replicas int) (*ReplicaSet, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("fabric: replica set needs >= 1 replicas, got %d", replicas)
	}
	rs := &ReplicaSet{
		n:      replicas,
		counts: make([]int, replicas),
		killed: make([]bool, replicas),
	}
	fan := &replicaFan{rs: rs}
	for i := 0; i < replicas; i++ {
		c := cfg
		c.ReplicaID = i
		c.Replicas = replicas
		c.Transport = fan
		c.onLeader = rs.recordLeader
		id := i
		c.onApplied = func(kind uint8, reply any, leader bool) {
			rs.applied(id, kind, reply, leader)
		}
		co, err := newCoordinator(c)
		if err != nil {
			rs.Close()
			return nil, err
		}
		lb := NewLoopback()
		srv := netblock.NewHandlerServer(co)
		go srv.Serve(lb) //nolint:errcheck — ends with the loopback
		rs.cos = append(rs.cos, co)
		rs.lbs = append(rs.lbs, lb)
		rs.srvs = append(rs.srvs, srv)
	}
	for _, co := range rs.cos {
		co.start()
	}
	// Expand the chaos plan's leader-kill windows against the shard plan.
	// The trigger counts are a pure function of (seed, shard count), so the
	// same study kills its leader at the same ledger position every run.
	if opts := cfg.Opts; opts.Chaos != nil && opts.Chaos.LeaderKills > 0 && replicas > 1 {
		rs.sched = opts.Chaos.Expand(cfg.Fleet.Seed, chaos.Shape{Shards: len(rs.cos[0].Plan())})
		rs.kills = rs.sched.LeaderKills
	}
	return rs, nil
}

// recordLeader appends one entry to the leadership-transition log. Only the
// winning replica fires this hook, so the log is the run's election history.
func (rs *ReplicaSet) recordLeader(term uint64, id int) {
	rs.mu.Lock()
	rs.transitions = append(rs.transitions, invariant.LeaderTransition{Term: term, Leader: id})
	rs.mu.Unlock()
}

// applied is every replica's post-apply hook: it counts accepted results in
// commit order and, when the next kill window's trigger count is reached on
// the replica that currently leads, consumes the window and kills that
// replica asynchronously (the teardown stops the runner this callback
// belongs to, so it cannot run inline).
func (rs *ReplicaSet) applied(id int, kind uint8, reply any, leader bool) {
	if kind != cmdResult {
		return
	}
	rr, ok := reply.(resultReply)
	if !ok || !rr.Accepted {
		return
	}
	rs.mu.Lock()
	rs.counts[id]++
	count := rs.counts[id]
	kill := leader && !rs.killed[id] && rs.nextKill < len(rs.kills) &&
		rs.counts[id] >= rs.kills[rs.nextKill].AfterResults
	if kill {
		rs.nextKill++
		rs.killed[id] = true
		rs.killWG.Add(1)
	}
	rs.mu.Unlock()
	if leader && rs.OnAccepted != nil {
		rs.OnAccepted(count)
	}
	if kill {
		go func() {
			defer rs.killWG.Done()
			rs.kill(id)
		}()
	}
}

// kill tears one replica down the hard way: consensus runner stopped (every
// parked proposal fails), listener closed (workers' connections die), server
// drained. The surviving replicas elect a successor and the run continues
// from the replicated ledger.
func (rs *ReplicaSet) kill(id int) {
	rs.cos[id].Stop()
	rs.lbs[id].Close()
	rs.srvs[id].Close()
}

// Dials returns one control-plane dialer per replica, indexed by replica ID
// (the order leader redirects refer to).
func (rs *ReplicaSet) Dials() []func() (net.Conn, error) {
	out := make([]func() (net.Conn, error), rs.n)
	for i, lb := range rs.lbs {
		out[i] = lb.Dial
	}
	return out
}

// Transitions snapshots the leadership history.
func (rs *ReplicaSet) Transitions() []invariant.LeaderTransition {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]invariant.LeaderTransition, len(rs.transitions))
	copy(out, rs.transitions)
	return out
}

// KillsExecuted reports how many leader-kill windows have fired.
func (rs *ReplicaSet) KillsExecuted() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.nextKill
}

// Schedule returns the expanded chaos schedule driving the kill queue, or
// nil when the run has no leader-kill plan.
func (rs *ReplicaSet) Schedule() *chaos.Schedule { return rs.sched }

// Coordinator returns replica id's coordinator (for ledger inspection).
func (rs *ReplicaSet) Coordinator(id int) *Coordinator { return rs.cos[id] }

// SketchSnapshot returns the most advanced replica's merged view of the
// accepted shard partials' sketch state (see Coordinator.SketchSnapshot).
// Replicas may trail the leader by a few commits; taking the view covering
// the most virtual disks keeps the snapshot stream monotone across leader
// kills.
func (rs *ReplicaSet) SketchSnapshot() (*sketch.Set, int, error) {
	var best *sketch.Set
	var bestVDs int
	for _, co := range rs.cos {
		set, vds, err := co.SketchSnapshot()
		if err != nil {
			return nil, 0, err
		}
		if vds > bestVDs {
			best, bestVDs = set, vds
		}
	}
	return best, bestVDs, nil
}

// Wait blocks until some replica's ledger holds every shard result (or ctx
// ends), verifies the fabric accounting and leadership-continuity laws, and
// merges that replica's partials into the final dataset.
func (rs *ReplicaSet) Wait(ctx context.Context) (*trace.Dataset, error) {
	done := make(chan int, rs.n)
	for i, co := range rs.cos {
		go func(i int, ch <-chan struct{}) {
			select {
			case <-ch:
				done <- i
			case <-ctx.Done():
			}
		}(i, co.DoneCh())
	}
	var idx int
	select {
	case idx = <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Let any in-flight kill finish so the leadership log is complete
	// before the continuity law reads it.
	rs.killWG.Wait()
	ds, err := rs.cos[idx].Wait(ctx)
	if err != nil {
		return nil, err
	}
	var rep invariant.Report
	invariant.CheckLeadershipContinuity(&rep, rs.n, rs.Transitions())
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return ds, nil
}

// Close stops every replica that is still alive.
func (rs *ReplicaSet) Close() {
	rs.closeOnce.Do(func() {
		rs.killWG.Wait()
		for i := range rs.cos {
			rs.mu.Lock()
			dead := rs.killed[i]
			rs.killed[i] = true
			rs.mu.Unlock()
			if dead {
				continue
			}
			rs.kill(i)
		}
	})
}

// --- TCP peer transport -----------------------------------------------------

// PeerTransport carries consensus messages between coordinator replicas over
// netblock TCP connections: one lazily-dialed client and one sender
// goroutine per peer, fed by a bounded outbox. A full outbox or a dead peer
// drops messages — the consensus protocol's retries (heartbeats, re-votes)
// make delivery eventually succeed without the transport ever blocking the
// replica.
type PeerTransport struct {
	self  int
	addrs []string
	outs  []chan consensus.Message
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// NewPeerTransport wires replica self into a TCP replica set. addrs is
// indexed by replica ID (self's own slot is ignored). Close releases the
// sender goroutines.
func NewPeerTransport(self int, addrs []string) *PeerTransport {
	t := &PeerTransport{
		self:  self,
		addrs: addrs,
		outs:  make([]chan consensus.Message, len(addrs)),
		stop:  make(chan struct{}),
	}
	for i := range addrs {
		if i == self {
			continue
		}
		t.outs[i] = make(chan consensus.Message, 256)
		t.wg.Add(1)
		go t.sendLoop(i)
	}
	return t
}

// Send enqueues a message toward its destination, dropping on overflow.
func (t *PeerTransport) Send(m consensus.Message) {
	if m.To < 0 || m.To >= len(t.outs) || m.To == t.self || t.outs[m.To] == nil {
		return
	}
	select {
	case t.outs[m.To] <- m:
	default:
	}
}

// Close stops the sender goroutines and closes peer connections.
func (t *PeerTransport) Close() {
	t.once.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *PeerTransport) sendLoop(peer int) {
	defer t.wg.Done()
	var cl *netblock.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for {
		select {
		case <-t.stop:
			return
		case m := <-t.outs[peer]:
			if cl == nil {
				c, err := netblock.DialConfig("tcp", t.addrs[peer], netblock.Config{Timeout: 2 * time.Second})
				if err != nil {
					continue // dropped; the protocol retransmits
				}
				cl = c
			}
			op := netblock.OpAppendEntries
			if m.Type == consensus.MsgVote || m.Type == consensus.MsgVoteResp {
				op = netblock.OpRequestVote
			}
			if _, err := cl.Call(op, consensus.EncodeMessage(&m)); err != nil {
				cl.Close()
				cl = nil
			}
		}
	}
}
