package fabric

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
)

// TestFabricWorkerRetriesLostResultReply is the regression test for the
// silent-coordinator hang: the server executes the worker's first ShardResult
// but never answers (exactly what a leader dying between commit and reply
// looks like). The worker's call timeout must fire, the link must redial and
// retransmit, and the ledger must absorb the retransmit without
// double-counting — the run completes in bounded time instead of hanging
// until the liveness reaper forgets the worker.
func TestFabricWorkerRetriesLostResultReply(t *testing.T) {
	wantDS, _ := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, err := NewCoordinator(Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 3,
		HeartbeatEvery: 50 * time.Millisecond,
		// Liveness alone must NOT be what rescues the run: it is far longer
		// than the budget this test allows for completion.
		LivenessTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv := netblock.NewHandlerServer(co)
	var dropped atomic.Bool
	srv.SetFaultHook(func(req *netblock.Request) netblock.FaultDecision {
		if req.Op == netblock.OpShardResult && dropped.CompareAndSwap(false, true) {
			return netblock.FaultDecision{Fault: netblock.FaultDrop}
		}
		return netblock.FaultDecision{}
	})
	go srv.Serve(lb) //nolint:errcheck — ends with the loopback
	t.Cleanup(func() {
		lb.Close()
		srv.Close()
	})

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Dials:       []func() (net.Conn, error){lb.Dial},
			CallTimeout: 300 * time.Millisecond,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatalf("run never completed after the dropped reply: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exited: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("run took %v: recovery rode the liveness reaper, not the call timeout", elapsed)
	}
	if !dropped.Load() {
		t.Fatal("fault hook never fired; the test exercised nothing")
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s after retransmit, single-process %s", got, wantDS)
	}
	// The retransmitted frame must have been acknowledged via the dedup path:
	// every shard returned exactly once despite two uploads of one of them.
	l := co.Ledger()
	for i := range l.Dispatched {
		if l.Dispatched[i] != 1 || l.Returned[i] != 1 || l.Accepted[i] != 1 {
			t.Fatalf("shard %d ledger d=%d r=%d a=%d, want 1/1/1",
				i, l.Dispatched[i], l.Returned[i], l.Accepted[i])
		}
	}
}

// TestFabricWorkerFailsFastWhenControlPlaneDies kills the whole control plane
// between AssignShard and ShardResult. Before the call-timeout fix the worker
// hung forever inside the upload; now it must give up within its failover
// window and surface an error promptly.
func TestFabricWorkerFailsFastWhenControlPlaneDies(t *testing.T) {
	co, err := NewCoordinator(Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(lb) //nolint:errcheck — ends with the loopback
	t.Cleanup(func() {
		lb.Close()
		srv.Close()
	})
	done := make(chan error, 1)
	var killedAt atomic.Int64
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Dials:          []func() (net.Conn, error){lb.Dial},
			CallTimeout:    200 * time.Millisecond,
			FailoverWindow: 500 * time.Millisecond,
			// Fires after the shard simulation, before its upload: the worst
			// window, with work in hand and nobody left to give it to.
			FaultHook: func(shard int) error {
				killedAt.Store(time.Now().UnixNano())
				lb.Close()
				srv.Close()
				return nil
			},
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker exited cleanly with the control plane dead")
		}
		took := time.Since(time.Unix(0, killedAt.Load()))
		if took > 10*time.Second {
			t.Fatalf("worker needed %v to notice the dead control plane", took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker hung on the dead control plane (the pre-fix behavior)")
	}
}
