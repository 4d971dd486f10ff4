package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
)

func TestServeScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := serveSchedule(7, 8), serveSchedule(7, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, serveSchedule(8, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < serveMinStudies {
		t.Fatalf("%d arrivals, want >= %d", len(a), serveMinStudies)
	}
	seen := make(map[gateway.StudySpec]bool)
	tenants := make(map[string]bool)
	var repeats, scenarios int
	for i, x := range a {
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, x.At, i-1, a[i-1].At)
		}
		if seen[x.Spec] {
			repeats++
		} else if x.Spec.Scenario != "" {
			scenarios++
		}
		seen[x.Spec] = true
		tenants[x.Tenant] = true
	}
	if len(tenants) != serveTenants {
		t.Errorf("%d tenants, want %d", len(tenants), serveTenants)
	}
	// One in four repeats an earlier spec; one new spec in four carries a
	// scenario. Allow sampling noise around a quarter.
	for name, got := range map[string]float64{
		"repeat share":   float64(repeats) / float64(len(a)),
		"scenario share": float64(scenarios) / float64(len(a)-repeats),
	} {
		if got < 0.15 || got > 0.35 {
			t.Errorf("%s %.2f, want about 0.25", name, got)
		}
	}
	span := a[len(a)-1].At.Seconds()
	if rate := float64(len(a)) / span; rate < serveRate*0.8 || rate > serveRate*1.25 {
		t.Errorf("arrival rate %.1f/s, want about %v/s", rate, serveRate)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := Tail(xs, 95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 with exactly 10 beyond", v, err)
	}
	if _, err := Tail(xs[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples (9 beyond) was reported")
	}
	if _, err := Tail(xs[:20], 50); err != nil {
		t.Fatalf("p50 of 20 samples (10 beyond): %v", err)
	}
	if _, err := Tail(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was reported")
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "parent", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "child", Start: at(2), End: at(4)},
		{ID: 3, Parent: 1, Name: "child", Start: at(3), End: at(6)},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: at(8), End: at(12)}, // runs past the parent
		{ID: 5, Parent: 4, Name: "grandchild", Start: at(9), End: at(10)},
		{ID: 6, Name: "parent", Start: at(20), End: at(25)}, // no children
	}
	self := SelfTimes(spans)
	// parent: 10 - |[2,6] u [8,10]| = 4, plus the childless 5.
	// child: 2 + 3 + (4 - 1) = 8.
	want := map[string]time.Duration{"parent": 9 * time.Millisecond, "child": 8 * time.Millisecond, "grandchild": time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestTamperedFingerprintCountsAsFailure(t *testing.T) {
	spec := gateway.StudySpec{Seed: 3}
	sched := []arrival{{Tenant: "a", Spec: spec}, {Tenant: "b", Spec: spec}}
	good := gateway.StatusReply{State: gateway.StateName(gateway.StateDone), DatasetFP: "ab12", SketchFP: "cd34"}
	bad := good
	bad.DatasetFP = "ab13" // one byte flipped
	out := []served{{Status: good}, {Status: bad}}
	want := map[gateway.StudySpec]gatewaytest.Oracle{spec: {DatasetFP: "ab12", SketchFP: "cd34"}}

	r := &Run{Metrics: map[string]float64{"x": 1}}
	checkServed(r, sched, out, want)
	if r.Checks.Attempted != 2 || r.Checks.Failed != 1 || r.Checks.ErrorRate() != 0.5 {
		t.Fatalf("attempted %d failed %d error rate %v; want 2, 1, 0.5",
			r.Checks.Attempted, r.Checks.Failed, r.Checks.ErrorRate())
	}

	var tl Tally
	tl.Check("engine", "074f", "074f")
	tl.Check("engine", "074e", "074f")
	tl.Check("engine", "", "") // a missing fingerprint never matches
	if tl.Failed != 2 {
		t.Fatalf("tally failed %d, want 2", tl.Failed)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json's metric lists and
// workload names to the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	for _, c := range []struct {
		name  string
		list  []struct{ Name, Unit string }
		table map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := make(map[string]string)
		for _, m := range c.list {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.table) {
			t.Errorf("BENCHMARK.json %s = %v, benchmark reports %v", c.name, got, c.table)
		}
	}
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []map[string]string{endToEnd, perLayer, serveLayer} {
		for name := range table {
			if !strings.Contains(string(doc), "`"+name+"`") {
				t.Errorf("METRICS.md does not describe %s", name)
			}
		}
	}
}
