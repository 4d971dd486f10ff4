package gateway_test

import (
	"context"
	"testing"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
)

// TestE2EScenarioStudy pushes a scenario study through a live gateway — once
// in-process and once on a two-worker fabric — and requires both served
// answers to be byte-identical to a direct run of the same bound scenario.
func TestE2EScenarioStudy(t *testing.T) {
	spec := gateway.StudySpec{
		Seed: 4242, DurationSec: 2, Nodes: 2, Users: 4, MaxVDs: 6,
		EventSampleEvery: 4, Scenario: "bufferbloat,period=8,duty=0.5",
	}
	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantSK := oracle.DatasetFP, oracle.SketchFP

	for name, cfg := range map[string]gateway.Config{
		"local":  {MaxConcurrent: 1},
		"fabric": {MaxConcurrent: 1, Fabric: &gateway.FabricConfig{Workers: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			h := gatewaytest.Start(cfg)
			defer h.Close()
			cl, err := h.Client()
			if err != nil {
				t.Fatal(err)
			}
			sub, err := cl.Submit("alice", spec)
			if err != nil {
				t.Fatalf("submit scenario study: %v", err)
			}
			st := pollDone(t, cl, sub.StudyID)
			if st.DatasetFP != wantDS {
				t.Errorf("served dataset fingerprint %s, direct-run oracle %s", st.DatasetFP, wantDS)
			}
			if st.SketchFP != wantSK {
				t.Errorf("served sketch fingerprint %s, direct-run oracle %s", st.SketchFP, wantSK)
			}

			// The scenario-less twin is a distinct content address.
			plain := spec
			plain.Scenario = ""
			psub, err := cl.Submit("alice", plain)
			if err != nil {
				t.Fatal(err)
			}
			if psub.Deduped {
				t.Fatal("scenario-less spec deduped against its scenario twin")
			}
			pst := pollDone(t, cl, psub.StudyID)
			if pst.DatasetFP == wantDS {
				t.Error("scenario-less study answered the scenario dataset")
			}
		})
	}
}
