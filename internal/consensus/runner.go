package consensus

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Applier is the deterministic replicated state machine: Apply consumes one
// committed command (in log order, exactly once per index) and returns the
// reply the proposer should see. Apply runs under the Runner's lock, so it
// must not call back into the Runner.
type Applier interface {
	Apply(index uint64, cmd []byte) any
}

// Transport delivers one message toward its destination. Send must not
// block for long and may drop messages freely — the protocol retries; the
// fabric's implementation queues onto a bounded per-peer outbox.
type Transport interface {
	Send(m Message)
}

// Runner errors.
var (
	// ErrNotLeader is the errors.Is target for NotLeaderError.
	ErrNotLeader = errors.New("consensus: not the leader")
	// ErrStopped reports the runner was shut down (replica killed).
	ErrStopped = errors.New("consensus: node stopped")
	// ErrLeadershipLost reports a proposal's slot was committed by a
	// different leader's entry: the command did not commit here and must
	// be retried through the new leader.
	ErrLeadershipLost = errors.New("consensus: leadership lost before commit")
	// ErrCommitTimeout reports the proposal did not commit in time
	// (typically: no quorum reachable).
	ErrCommitTimeout = errors.New("consensus: commit timed out")
)

// NotLeaderError carries the rejecting node's leader hint.
type NotLeaderError struct {
	// Leader is the hinted leader ID, or None when unknown (election in
	// progress).
	Leader int
}

func (e *NotLeaderError) Error() string {
	if e.Leader == None {
		return "consensus: not the leader (no leader known)"
	}
	return fmt.Sprintf("consensus: not the leader (leader is replica %d)", e.Leader)
}

func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// RunnerConfig wires a Runner.
type RunnerConfig struct {
	Node      *Node
	FSM       Applier
	Transport Transport // may be nil for a single-node group
	// TickEvery is the real-time interval behind Node.Tick. <= 0 leaves
	// the internal ticker off (tests drive Tick manually; single-node
	// groups need no ticks at all; a driver still wiring its peers calls
	// Start once they can receive).
	TickEvery time.Duration
	// OnBecomeLeader fires (outside the lock) when this node wins an
	// election or bootstraps as leader; the fabric records the
	// leadership-transition log from it.
	OnBecomeLeader func(term uint64, id int)
	// OnApply fires (outside the lock, in commit order) after each
	// non-empty command is applied; leader reports whether this node led
	// at apply time. The fabric's chaos leader-kill trigger hangs here.
	OnApply func(cmd []byte, reply any, leader bool)
}

// Runner drives a Node with a real ticker and transport, applies committed
// entries to the FSM, and parks proposers until their entry commits. It is
// the only goroutine-safe entry point to a node.
type Runner struct {
	mu      sync.Mutex
	node    *Node
	fsm     Applier
	tr      Transport
	waiters map[uint64]*commitWaiter

	onBecomeLeader func(term uint64, id int)
	onApply        func(cmd []byte, reply any, leader bool)
	wasLeader      bool

	stop     chan struct{}
	stopOnce sync.Once
	tickWG   sync.WaitGroup
}

type commitWaiter struct {
	term uint64
	ch   chan any // receives the FSM reply, or an error
}

// NewRunner constructs a Runner and, when cfg.TickEvery > 0, starts its
// ticker goroutine.
func NewRunner(cfg RunnerConfig) *Runner {
	r := &Runner{
		node:           cfg.Node,
		fsm:            cfg.FSM,
		tr:             cfg.Transport,
		waiters:        make(map[uint64]*commitWaiter),
		onBecomeLeader: cfg.OnBecomeLeader,
		onApply:        cfg.OnApply,
		stop:           make(chan struct{}),
	}
	// A bootstrap leader is already leading at construction; surface it
	// through the same callback as election wins.
	r.mu.Lock()
	notify := r.advanceLocked()
	r.mu.Unlock()
	runDeferred(notify)
	if cfg.TickEvery > 0 {
		r.Start(cfg.TickEvery)
	}
	return r
}

// Start launches the ticker goroutine that calls Tick every interval. Call
// it at most once, and only on a runner built with TickEvery <= 0.
func (r *Runner) Start(every time.Duration) {
	r.tickWG.Add(1)
	go r.tickLoop(every)
}

// Stop shuts the runner down: the ticker exits, every parked proposer
// fails with ErrStopped, and all later calls are rejected. Used both for
// orderly teardown and as the chaos "kill this replica" primitive.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.mu.Lock()
		for idx, w := range r.waiters {
			delete(r.waiters, idx)
			w.ch <- error(ErrStopped)
		}
		r.mu.Unlock()
	})
	r.tickWG.Wait()
}

// Done returns a channel closed when the runner stops — for callers that
// park (assign long-polls) and must wake when the replica is killed.
func (r *Runner) Done() <-chan struct{} { return r.stop }

// Stopped reports whether Stop was called.
func (r *Runner) Stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *Runner) tickLoop(every time.Duration) {
	defer r.tickWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Tick()
		}
	}
}

// Tick advances the node one logical beat. Exposed so tests (and the
// seeded simulator) can drive time manually.
func (r *Runner) Tick() {
	if r.Stopped() {
		return
	}
	r.mu.Lock()
	out := r.node.Tick()
	notify := r.advanceLocked()
	r.mu.Unlock()
	runDeferred(notify)
	r.send(out)
}

// Deliver feeds one incoming message (from the netblock handler) into the
// node and sends whatever the node wants transmitted in response.
func (r *Runner) Deliver(m Message) {
	if r.Stopped() {
		return
	}
	r.mu.Lock()
	out := r.node.Step(m)
	notify := r.advanceLocked()
	r.mu.Unlock()
	runDeferred(notify)
	r.send(out)
}

// Propose appends cmd to the replicated log and blocks until the entry
// commits and applies, returning the FSM's reply. On a non-leader it fails
// immediately with *NotLeaderError (carrying the leader hint) so the
// control-plane handler can answer with a redirect instead of stalling the
// worker.
func (r *Runner) Propose(cmd []byte, timeout time.Duration) (any, error) {
	if r.Stopped() {
		return nil, ErrStopped
	}
	r.mu.Lock()
	idx, term, msgs, ok := r.node.Propose(cmd)
	if !ok {
		leader := r.node.Leader()
		r.mu.Unlock()
		return nil, &NotLeaderError{Leader: leader}
	}
	w := &commitWaiter{term: term, ch: make(chan any, 1)}
	r.waiters[idx] = w
	notify := r.advanceLocked() // single-node groups commit right here
	r.mu.Unlock()
	runDeferred(notify)
	r.send(msgs)

	// Single-node groups (and any entry whose quorum was already in) commit
	// inline during advanceLocked above: the reply is already buffered, so
	// take it without paying for a timer on every proposal.
	select {
	case v := <-w.ch:
		if err, isErr := v.(error); isErr {
			return nil, err
		}
		return v, nil
	default:
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-w.ch:
		if err, isErr := v.(error); isErr {
			return nil, err
		}
		return v, nil
	case <-timer.C:
		r.mu.Lock()
		delete(r.waiters, idx)
		r.mu.Unlock()
		return nil, fmt.Errorf("%w (index %d, term %d)", ErrCommitTimeout, idx, term)
	case <-r.stop:
		return nil, ErrStopped
	}
}

// LeaderInfo returns the node's current leader hint and whether this node
// is that leader.
func (r *Runner) LeaderInfo() (leader int, isLeader bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Leader(), r.node.State() == Leader
}

// Read runs f under the runner's lock, serialized against FSM application.
// The fabric uses it for consistent reads of its ledger state.
func (r *Runner) Read(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// advanceLocked applies newly committed entries, resolves their waiters,
// and detects local leadership changes. It returns callbacks to run after
// the lock is released (user hooks must not run under the lock: the chaos
// leader-kill hook stops runners, which would deadlock).
func (r *Runner) advanceLocked() []func() {
	var deferred []func()
	for _, e := range r.node.TakeCommitted() {
		var reply any
		if len(e.Cmd) > 0 {
			reply = r.fsm.Apply(e.Index, e.Cmd)
		}
		if w, ok := r.waiters[e.Index]; ok {
			delete(r.waiters, e.Index)
			if w.term == e.Term {
				w.ch <- reply
			} else {
				// Our proposal's slot was filled by another leader's
				// entry: the command never committed.
				w.ch <- error(ErrLeadershipLost)
			}
		}
		if r.onApply != nil && len(e.Cmd) > 0 {
			cmd, rep := e.Cmd, reply
			leading := r.node.State() == Leader
			deferred = append(deferred, func() { r.onApply(cmd, rep, leading) })
		}
	}
	if r.node.State() == Leader && !r.wasLeader {
		r.wasLeader = true
		if r.onBecomeLeader != nil {
			term, id := r.node.Term(), r.node.ID()
			deferred = append(deferred, func() { r.onBecomeLeader(term, id) })
		}
	} else if r.node.State() != Leader {
		r.wasLeader = false
	}
	return deferred
}

func runDeferred(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

func (r *Runner) send(msgs []Message) {
	if r.tr == nil || len(msgs) == 0 || r.Stopped() {
		return
	}
	for _, m := range msgs {
		r.tr.Send(m)
	}
}
