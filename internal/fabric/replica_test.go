package fabric

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/consensus"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden leader-kill fixture under testdata")

// replicaConfig is the fixed replicated-control-plane setup the leader-kill
// tests share: 3 replicas, 5 shards, fast ticks so elections finish in tens
// of milliseconds, and a liveness timeout generously above the election time
// so workers are not spuriously reaped while the control plane is headless.
func replicaConfig(stream *sketch.Set, kills int) Config {
	opts := testOpts(stream)
	opts.Chaos = &chaos.Plan{LeaderKills: kills, Recoverable: true}
	return Config{
		Fleet: testFleetConfig(), Opts: opts, Shards: 5,
		HeartbeatEvery:  20 * time.Millisecond,
		LivenessTimeout: 2 * time.Second,
		TickEvery:       2 * time.Millisecond,
	}
}

// runReplicated drives a full distributed run over a replica set with n
// workers that dial every replica and follow leader redirects.
func runReplicated(t *testing.T, rs *ReplicaSet, n int) *trace.Dataset {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Dials:          rs.Dials(),
				CallTimeout:    2 * time.Second,
				FailoverWindow: 20 * time.Second,
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ds, err := rs.Wait(ctx)
	if err != nil {
		t.Fatalf("replicated run failed: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}
	return ds
}

// TestReplicaSetStartOrder ticks the consensus clock far faster than a
// replica can be built (each one generates its fleet). Replica 0 bootstraps
// as leader, so if its clock ran before replicas 1 and 2 existed, its first
// heartbeats would address a replica the fan does not hold yet.
func TestReplicaSetStartOrder(t *testing.T) {
	cfg := replicaConfig(nil, 0)
	cfg.Opts.Chaos = nil
	cfg.TickEvery = time.Microsecond
	rs, err := NewReplicaSet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if tr := rs.Transitions(); len(tr) == 0 || tr[0] != (invariant.LeaderTransition{Term: 1, Leader: 0}) {
		t.Fatalf("leadership history %v does not start with the bootstrap leader", tr)
	}
}

// TestReplicaSetMatchesSingleProcess: with no chaos at all, a 3-replica
// control plane must be invisible — same dataset, same sketches as one
// process, with every mutation having travelled the consensus log.
func TestReplicaSetMatchesSingleProcess(t *testing.T) {
	wantDS, wantSK := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	cfg := replicaConfig(stream, 0)
	cfg.Opts.Chaos = nil
	rs, err := NewReplicaSet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	ds := runReplicated(t, rs, 2)
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s via replicated control plane, single-process %s", got, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the replicated control plane")
	}
	tr := rs.Transitions()
	if len(tr) != 1 || tr[0].Term != 1 || tr[0].Leader != 0 {
		t.Fatalf("fault-free run saw transitions %+v, want the bootstrap leader only", tr)
	}
	if rs.KillsExecuted() != 0 {
		t.Fatalf("%d kills executed with no chaos plan", rs.KillsExecuted())
	}
}

type leaderKillGolden struct {
	// ScheduleFP pins the expanded chaos schedule (kill positions included).
	ScheduleFP string
	// DatasetFP is the merged dataset fingerprint — equal, by construction,
	// to the fault-free single-process fingerprint.
	DatasetFP string
	// Transitions is the leadership history, "term=T leader=L" per entry.
	Transitions []string
	// Kills is how many leader-kill windows actually fired.
	Kills int
}

func leaderKillGoldenPath() string {
	return filepath.Join("testdata", "golden", "leaderkill.json")
}

// TestReplicaSetLeaderKillGolden is the tentpole acceptance test: the chaos
// plan kills the coordinator leader mid-run, a successor is elected, workers
// fail over through redirects, and the run completes with the dataset
// byte-identical to a fault-free single-process run. The schedule, the
// leadership-transition log, and the dataset fingerprint are pinned to a
// golden fixture; regenerate after an intentional change with
//
//	go test ./internal/fabric -run TestReplicaSetLeaderKillGolden -update
func TestReplicaSetLeaderKillGolden(t *testing.T) {
	wantDS, wantSK := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	rs, err := NewReplicaSet(replicaConfig(stream, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	if rs.Schedule() == nil || len(rs.Schedule().LeaderKills) != 1 {
		t.Fatalf("plan expanded to %+v, want exactly one kill window", rs.Schedule())
	}

	ds := runReplicated(t, rs, 2)

	// The hard guarantee first, independent of the fixture: a leader died and
	// the dataset is still the fault-free one, bit for bit.
	if rs.KillsExecuted() != 1 {
		t.Fatalf("%d leader kills executed, want 1", rs.KillsExecuted())
	}
	got := leaderKillGolden{
		ScheduleFP: rs.Schedule().Fingerprint(),
		DatasetFP:  invariant.Fingerprint(ds),
		Kills:      rs.KillsExecuted(),
	}
	if got.DatasetFP != wantDS {
		t.Fatalf("dataset fingerprint %s after leader kill, fault-free single-process %s", got.DatasetFP, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the leader kill")
	}
	for _, tr := range rs.Transitions() {
		got.Transitions = append(got.Transitions, fmt.Sprintf("term=%d leader=%d", tr.Term, tr.Leader))
	}
	if len(got.Transitions) < 2 {
		t.Fatalf("leadership log %v never shows a succession; the kill exercised nothing", got.Transitions)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(leaderKillGoldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(leaderKillGoldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden leader-kill fixture updated: %s", leaderKillGoldenPath())
		return
	}
	blob, err := os.ReadFile(leaderKillGoldenPath())
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	var want leaderKillGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("golden fixture corrupt: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leader-kill scenario drifted from the golden fixture.\n got: %+v\nwant: %+v\n(after an intentional change: go test ./internal/fabric -run TestReplicaSetLeaderKillGolden -update)", got, want)
	}
}

// TestCoordinatorRejectsBadReplicaConfig pins the construction-time guards.
func TestCoordinatorRejectsBadReplicaConfig(t *testing.T) {
	base := Config{Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2}
	bad := base
	bad.Replicas = 3
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("3 replicas without a transport accepted")
	}
	bad = base
	bad.Replicas = 3
	bad.ReplicaID = 3
	bad.Transport = noopTransport{}
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("replica ID outside the set accepted")
	}
	if _, err := NewReplicaSet(base, 0); err == nil {
		t.Fatal("0-replica set accepted")
	}
}

type noopTransport struct{}

func (noopTransport) Send(consensus.Message) {}
