package ebs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// bindScenario builds spec and binds it to f ("" = native traffic).
func bindScenario(t *testing.T, f *workload.Fleet, spec string) scenario.Workload {
	t.Helper()
	if spec == "" {
		return nil
	}
	b, err := scenario.Build(spec)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	wl, err := b.Bind(f)
	if err != nil {
		t.Fatalf("Bind(%q): %v", spec, err)
	}
	return wl
}

// TestObserveTrafficMatchesRun pins the traffic-only observe pass to its
// reference: for every traffic source, with and without a chaos plan, at
// several worker counts and under a MaxVDs cap, the observation it fills
// must fingerprint identically to the one Run fills through Options.Observe.
func TestObserveTrafficMatchesRun(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	type arm struct {
		traffic, spec string
		chaos         *chaos.Plan
		workers       int
		maxVDs        int
	}
	var arms []arm
	for _, tr := range [][2]string{
		{"native", ""},
		{"bufferbloat", "bufferbloat"},
		{"batchburst", "batchburst"},
		{"elastic", "elastic"},
		{"replay-msr", "replay,path=../scenario/testdata/msr_sample.csv"},
	} {
		for _, plan := range []*chaos.Plan{nil, chaosPlan()} {
			for _, w := range []int{1, 3} {
				arms = append(arms, arm{tr[0], tr[1], plan, w, 0})
			}
		}
	}
	arms = append(arms, arm{"native", "", chaosPlan(), 3, 7})
	for _, a := range arms {
		name := fmt.Sprintf("%s/chaos=%t/workers=%d/maxvds=%d", a.traffic, a.chaos != nil, a.workers, a.maxVDs)
		t.Run(name, func(t *testing.T) {
			opts := Options{
				DurationSec: 10, EventSampleEvery: 4, TraceSampleEvery: 64,
				Workers: a.workers, MaxVDs: a.maxVDs, Chaos: a.chaos,
				Scenario: bindScenario(t, f, a.spec),
			}
			shape, err := sim.ObsShapeFor(opts, 3)
			if err != nil {
				t.Fatal(err)
			}
			ref := control.NewObservation(shape)
			refOpts := opts
			refOpts.Observe = ref
			if _, err := sim.Run(context.Background(), refOpts); err != nil {
				t.Fatalf("Run with Observe: %v", err)
			}
			if ref.Fingerprint() == control.NewObservation(shape).Fingerprint() {
				t.Fatal("reference observation saw no traffic")
			}
			prepared, err := opts.prepare(f)
			if err != nil {
				t.Fatal(err)
			}
			got := control.NewObservation(shape)
			if err := sim.observeTraffic(context.Background(), prepared, got); err != nil {
				t.Fatalf("observeTraffic: %v", err)
			}
			if got.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("traffic-only observation %s != Run's %s", got.Fingerprint(), ref.Fingerprint())
			}
		})
	}
}

// TestRunRejectsMismatchedObservation: an Options.Observe whose shape does
// not match the fleet and run is a configuration error. A foreign
// worker-thread layout used to index past the counters on a pool goroutine
// (killing the process), and a wrong Scale was silently accepted.
func TestRunRejectsMismatchedObservation(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	opts := Options{DurationSec: 6, EventSampleEvery: 4, MaxVDs: 8, Workers: 2}
	good, err := sim.ObsShapeFor(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*control.ObsShape)
	}{
		{"wtbase", func(sh *control.ObsShape) {
			sh.WTBase = append([]int(nil), sh.WTBase...)
			for n := range sh.WTBase {
				sh.WTBase[n] += sh.WTs
			}
		}},
		{"scale", func(sh *control.ObsShape) { sh.Scale = 1 }},
		{"dursec", func(sh *control.ObsShape) { sh.DurSec++ }},
		{"segments", func(sh *control.ObsShape) { sh.Segments++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			tc.mutate(&bad)
			o := opts
			o.Observe = control.NewObservation(bad)
			_, err := sim.Run(context.Background(), o)
			if err == nil || !strings.Contains(err.Error(), "observation") {
				t.Fatalf("Run accepted a mismatched observation shape: %v", err)
			}
		})
	}
	o := opts
	o.Observe = control.NewObservation(good)
	if _, err := sim.Run(context.Background(), o); err != nil {
		t.Fatalf("Run rejected the matching shape: %v", err)
	}
}

// TestRunControlledHooks: the caller's hooks see only the actuated pass.
// Progress fires exactly once per disk, the snapshot sink folds each disk
// once, and Stream and ChaosStats equal a plain Run under the returned
// timeline — the gateway serves controlled studies on these guarantees.
func TestRunControlledHooks(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	const nVDs = 12
	var (
		mu    sync.Mutex
		calls = map[int]int{}
	)
	stream := sketch.NewSet(sketch.Config{})
	sink := &SnapshotSink{}
	var st chaos.Stats
	opts := Options{
		DurationSec: 12, EventSampleEvery: 4, MaxVDs: nVDs, Workers: 3,
		Chaos: chaosPlan(), ChaosStats: &st, Stream: stream, Snapshots: sink,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != nVDs {
				t.Errorf("Progress total %d, want %d", total, nVDs)
			}
			calls[done]++
		},
	}
	pol, err := control.ByName("predictive")
	if err != nil {
		t.Fatal(err)
	}
	ds, plan, err := sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 3})
	if err != nil {
		t.Fatalf("RunControlled: %v", err)
	}
	if len(plan.Decisions) == 0 {
		t.Fatal("the plan decided nothing; the timeline exercises nothing")
	}
	if len(calls) != nVDs {
		t.Fatalf("Progress reported %d distinct counts, want %d", len(calls), nVDs)
	}
	for done := 1; done <= nVDs; done++ {
		if calls[done] != 1 {
			t.Fatalf("Progress(%d) fired %d times, want once", done, calls[done])
		}
	}
	if _, vds, _ := sink.Snapshot(); vds != nVDs {
		t.Fatalf("sink folded %d disks, want %d", vds, nVDs)
	}
	if sink.Fingerprint() != stream.Fingerprint() {
		t.Fatal("snapshot sink diverged from the run's stream")
	}

	refStream := sketch.NewSet(sketch.Config{})
	var refStats chaos.Stats
	ref := opts
	ref.Control = plan.Timeline
	ref.Stream, ref.Snapshots, ref.ChaosStats, ref.Progress = refStream, nil, &refStats, nil
	refDS, err := sim.Run(context.Background(), ref)
	if err != nil {
		t.Fatalf("Run under the timeline: %v", err)
	}
	if st != refStats {
		t.Fatalf("ChaosStats %+v, plain Run under the timeline gives %+v", st, refStats)
	}
	if stream.Fingerprint() != refStream.Fingerprint() {
		t.Fatal("Stream differs from a plain Run under the timeline")
	}
	if invariant.Fingerprint(ds) != invariant.Fingerprint(refDS) {
		t.Fatal("dataset differs from a plain Run under the timeline")
	}
}
