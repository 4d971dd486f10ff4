package fabric

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/testclock"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

func testFleetConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NodesPerDC = 6
	cfg.DCs = 1
	cfg.BSPerDC = 3
	cfg.BSPerCluster = 3
	cfg.Users = 8
	cfg.DurationSec = 10
	return cfg
}

func testOpts(stream *sketch.Set) ebs.Options {
	return ebs.Options{
		DurationSec: 6, TraceSampleEvery: 2, EventSampleEvery: 4,
		MaxVDs: 16, Workers: 2, Check: true, Stream: stream,
	}
}

// baseline runs the same options single-process and returns the dataset and
// sketch fingerprints the fabric must reproduce.
func baseline(t *testing.T) (string, string) {
	t.Helper()
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	ds, err := ebs.New(fleet).Run(context.Background(), testOpts(stream))
	if err != nil {
		t.Fatal(err)
	}
	return invariant.Fingerprint(ds), stream.Fingerprint()
}

// startFabric serves a coordinator over a loopback and returns both plus a
// cleanup-registered shutdown.
func startFabric(t *testing.T, cfg Config) (*Coordinator, *Loopback) {
	t.Helper()
	co, err := NewCoordinator(cfg)
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
	return co, lb
}

// runFabric executes a full distributed run with n workers (worker i gets
// hooks[i] if present, and starts only once gates[i], if present, is
// closed) and returns the merged dataset plus each worker's exit error.
func runFabric(t *testing.T, co *Coordinator, lb *Loopback, n int, hooks map[int]func(int) error, gates map[int]chan struct{}) (*trace.Dataset, []error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if g := gates[i]; g != nil {
				<-g
			}
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Dials:     []func() (net.Conn, error){lb.Dial},
				FaultHook: hooks[i],
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatalf("fabric run failed: %v", err)
	}
	wg.Wait()
	return ds, errs
}

// TestFabricMatchesSingleProcess is the tentpole's acceptance oracle: a
// 2-worker and a 4-worker loopback fabric must produce the byte-identical
// dataset (and sketch state) of a single-process run.
func TestFabricMatchesSingleProcess(t *testing.T) {
	wantDS, wantSK := baseline(t)
	for _, workers := range []int{2, 4} {
		stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
		co, lb := startFabric(t, Config{
			Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 5,
			HeartbeatEvery: 20 * time.Millisecond,
		})
		ds, errs := runFabric(t, co, lb, workers, nil, nil)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: worker %d exited: %v", workers, i, err)
			}
		}
		if got := invariant.Fingerprint(ds); got != wantDS {
			t.Fatalf("workers=%d: dataset fingerprint %s, single-process %s", workers, got, wantDS)
		}
		if got := stream.Fingerprint(); got != wantSK {
			t.Fatalf("workers=%d: sketch fingerprint drifted", workers)
		}
		if co.Workers() != 0 {
			t.Fatalf("workers=%d: %d workers still registered after completion", workers, co.Workers())
		}
	}
}

// TestFabricWorkerCrashMidShard kills one worker after it finished computing
// its shard but before uploading — the worst moment, since the work is lost
// but the dispatch is on the books. The survivor must inherit the shard via
// liveness reaping and the merged dataset must still match single-process.
// The survivor starts only once the crash has fired, so it cannot drain the
// whole plan before the crashing worker ever holds a shard.
func TestFabricWorkerCrashMidShard(t *testing.T) {
	wantDS, _ := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 4,
		HeartbeatEvery:  10 * time.Millisecond,
		LivenessTimeout: 60 * time.Millisecond,
	})
	crash := errors.New("simulated worker crash")
	crashed := make(chan struct{})
	ds, errs := runFabric(t, co, lb, 2, map[int]func(int) error{
		1: func(shard int) error { close(crashed); return crash },
	}, map[int]chan struct{}{0: crashed})
	if !errors.Is(errs[1], crash) {
		t.Fatalf("crashing worker exited with %v, want the injected crash", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("surviving worker exited: %v", errs[0])
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s after crash, single-process %s", got, wantDS)
	}
	l := co.Ledger()
	redispatched := false
	for i := range l.Dispatched {
		if l.Dispatched[i] > 1 {
			redispatched = true
		}
		if l.Accepted[i] != 1 {
			t.Fatalf("shard %d accepted %d results", i, l.Accepted[i])
		}
	}
	if !redispatched {
		t.Fatal("no shard was ever re-dispatched; the crash exercised nothing")
	}
}

// fakeWorker drives the control plane directly (no RunWorker loop) so tests
// can sequence speculation and duplicate results deterministically.
type fakeWorker struct {
	t   *testing.T
	cl  *netblock.Client
	id  uint64
	sim *ebs.Sim
	opt ebs.Options
}

func newFakeWorker(t *testing.T, lb *Loopback) *fakeWorker {
	t.Helper()
	conn, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := netblock.NewClient(conn)
	t.Cleanup(func() { cl.Close() })
	raw, err := cl.Call(netblock.OpJoinFleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := fromJSON(raw, &join); err != nil {
		t.Fatal(err)
	}
	fleet, err := workload.Generate(join.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeWorker{t: t, cl: cl, id: join.WorkerID, sim: ebs.New(fleet), opt: join.Spec.options()}
}

func (w *fakeWorker) assign() AssignReply {
	w.t.Helper()
	raw, err := w.cl.Call(netblock.OpAssignShard, mustJSON(workerMsg{WorkerID: w.id}))
	if err != nil {
		w.t.Fatal(err)
	}
	var a AssignReply
	if err := fromJSON(raw, &a); err != nil {
		w.t.Fatal(err)
	}
	return a
}

func (w *fakeWorker) upload(a AssignReply) resultReply {
	w.t.Helper()
	p, err := w.sim.RunShard(context.Background(), w.opt, a.Lo, a.Hi)
	if err != nil {
		w.t.Fatal(err)
	}
	raw, err := w.cl.Call(netblock.OpShardResult, encodeResult(w.id, a.Shard, p))
	if err != nil {
		w.t.Fatal(err)
	}
	var rep resultReply
	if err := fromJSON(raw, &rep); err != nil {
		w.t.Fatal(err)
	}
	return rep
}

// TestFabricSpeculativeDuplicateDroppedOnce walks the straggler path end to
// end: shard 0 is dispatched to a slow worker, the speculation threshold
// passes, an idle worker gets a speculative copy of the SAME shard (on a
// different worker, per placement policy), both results come back, and
// exactly one is accepted.
func TestFabricSpeculativeDuplicateDroppedOnce(t *testing.T) {
	clock := testclock.AtUnix(1000)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	opts := testOpts(stream)
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: opts, Shards: 2,
		SpeculateAfter:  time.Minute,
		LivenessTimeout: time.Hour, // liveness must not interfere here
		now:             clock.Now,
	})

	slow := newFakeWorker(t, lb)
	fast := newFakeWorker(t, lb)

	a0 := slow.assign()
	if a0.Status != AssignShard {
		t.Fatalf("slow worker got %q, want a shard", a0.Status)
	}
	a1 := fast.assign()
	if a1.Status != AssignShard || a1.Shard == a0.Shard {
		t.Fatalf("fast worker got %+v, want the other shard", a1)
	}
	if rep := fast.upload(a1); !rep.Accepted {
		t.Fatal("fast worker's own shard was rejected")
	}

	// Before the threshold: nothing placeable on the fast worker.
	if a := fast.assign(); a.Status != AssignWait {
		t.Fatalf("pre-threshold assign = %+v, want wait", a)
	}
	clock.Advance(2 * time.Minute)
	spec := fast.assign()
	if spec.Status != AssignShard || spec.Shard != a0.Shard {
		t.Fatalf("post-threshold assign = %+v, want speculative copy of shard %d", spec, a0.Shard)
	}

	// Both the straggler and the speculator finish: first result wins.
	if rep := slow.upload(a0); !rep.Accepted {
		t.Fatal("straggler's result (first to arrive) was rejected")
	}
	if rep := fast.upload(spec); rep.Accepted {
		t.Fatal("duplicate speculative result was accepted")
	}

	l := co.Ledger()
	if l.Dispatched[a0.Shard] != 2 || l.Returned[a0.Shard] != 2 || l.Accepted[a0.Shard] != 1 {
		t.Fatalf("speculated shard ledger d=%d r=%d a=%d, want 2/2/1",
			l.Dispatched[a0.Shard], l.Returned[a0.Shard], l.Accepted[a0.Shard])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantSK := baseline(t)
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s with duplicate, single-process %s", got, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the duplicate path")
	}
}

// TestFabricDrainCompletesCurrentShard: a drain requested while a shard is
// in flight must let that shard finish and upload, then deregister the
// worker — its result is on the books, and the coordinator forgets it.
func TestFabricDrainCompletesCurrentShard(t *testing.T) {
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 3,
		HeartbeatEvery: 20 * time.Millisecond,
	})

	drain := make(chan struct{})
	var drainOnce sync.Once
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Dials: []func() (net.Conn, error){lb.Dial},
			Drain: drain,
			// The hook fires between simulation and upload: requesting the
			// drain here proves the in-flight shard still completes.
			FaultHook: func(shard int) error {
				drainOnce.Do(func() { close(drain) })
				return nil
			},
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("draining worker exited: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("draining worker never exited")
	}
	if co.Workers() != 0 {
		t.Fatalf("%d workers registered after drain, want 0", co.Workers())
	}
	l := co.Ledger()
	var accepted int
	for _, a := range l.Accepted {
		accepted += a
	}
	if accepted != 1 {
		t.Fatalf("drained worker left %d accepted shards, want exactly its in-flight 1", accepted)
	}
	if co.Done() {
		t.Fatal("run reported done with shards still unexecuted")
	}

	// A fresh worker finishes the rest; the run still converges.
	if _, errs := runFabric(t, co, lb, 1, nil, nil); errs[0] != nil {
		t.Fatalf("second worker exited: %v", errs[0])
	}
}

// TestShardResultCodecRoundTrip pins the bulk frame: a populated partial
// survives the wire bit-exactly, and corrupted frames are rejected, never
// accepted partially.
func TestShardResultCodecRoundTrip(t *testing.T) {
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	p, err := ebs.New(fleet).RunShard(context.Background(), testOpts(stream), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Audit = []string{"VD 3: demo finding"}
	frame := encodeResult(42, 7, p)
	workerID, shardID, got, err := decodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if workerID != 42 || shardID != 7 || got.Lo != 2 || got.Hi != 7 {
		t.Fatalf("frame identity drifted: worker=%d shard=%d range=[%d,%d)", workerID, shardID, got.Lo, got.Hi)
	}
	if len(got.Records) != len(p.Records) || len(got.Compute) != len(p.Compute) || len(got.Storage) != len(p.Storage) {
		t.Fatal("section lengths drifted")
	}
	for i := range p.Records {
		if got.Records[i] != p.Records[i] {
			t.Fatalf("record %d drifted", i)
		}
	}
	for i := range p.Compute {
		if got.Compute[i] != p.Compute[i] {
			t.Fatalf("compute row %d drifted", i)
		}
	}
	if got.Sketch == nil || got.Sketch.Fingerprint() != p.Sketch.Fingerprint() {
		t.Fatal("sketch state drifted")
	}
	if len(got.Emission) != len(p.Emission) || got.Emission[0] != p.Emission[0] {
		t.Fatal("emission slots drifted")
	}
	if len(got.Audit) != 1 || got.Audit[0] != p.Audit[0] {
		t.Fatal("audit strings drifted")
	}
	for cut := 0; cut < len(frame); cut += 97 {
		if _, _, _, err := decodeResult(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, _, _, err := decodeResult(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
