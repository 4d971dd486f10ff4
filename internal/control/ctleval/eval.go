// Package ctleval runs the mitigation control plane's policy bake-off: one
// fleet, one seed, one (optional) chaos plan, every requested policy run
// through the full predict→act loop, with imbalance and hot-spot metrics
// reported side by side. The no-op policy doubles as the uncontrolled
// baseline — its timeline is empty, so its dataset is byte-identical to a
// plain run — which makes the report self-calibrating: any policy's win or
// loss is read directly against the noop row.
package ctleval

import (
	"context"
	"fmt"
	"strings"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/workload"
)

// Spec describes one evaluation scenario. The zero value of every field
// defaults sensibly except Fleet, which must be a valid workload config.
type Spec struct {
	// Fleet is the workload configuration the scenario generates.
	Fleet workload.Config
	// Opts are the run options shared by every policy (Chaos may be set
	// here; Control/Observe must be left nil — the harness owns them).
	Opts ebs.Options
	// Control tunes the controller (a zero EpochSec takes RunControlled's default).
	Control control.Config
	// Scenario, when non-empty, reshapes the fleet's traffic with a
	// scenario-library spec string ("elastic,step=10", ...) before every
	// policy runs — the bake-off then measures how each policy copes with
	// that scenario. Record-sourced replays are rejected by the engine
	// (measured latencies cannot be re-actuated). Opts.Scenario must be
	// left nil; the harness binds the scenario itself.
	Scenario string
	// Policies names the policies to evaluate, in report order (see
	// control.ByName). Empty means the canonical four-way bake-off:
	// noop, reactive, predictive-holt, oracle.
	Policies []string
}

// Outcome is one policy's row of the side-by-side report.
type Outcome struct {
	Policy string
	// Decision-log composition.
	Decisions   int
	Migrations  int
	Evacuations int
	Lends       int
	Rebinds     int
	// Imbalance and hot-spot metrics over the run's epochs, measured under
	// the placement the policy actually produced (control.Imbalance over
	// Plan.BSLoad).
	MeanCoV   float64
	MaxCoV    float64
	PeakShare float64
	// FaultedIOs counts IOs that landed on a crashed BS in the actuated
	// pass — evacuations off dying servers drive this down.
	FaultedIOs int64
	// LogFP fingerprints the decision log; DatasetFP the actuated dataset.
	LogFP     string
	DatasetFP string
}

// Report is the full bake-off result.
type Report struct {
	Epochs   int
	Outcomes []Outcome
}

// DefaultPolicies is the canonical bake-off lineup.
var DefaultPolicies = []string{"noop", "reactive", "predictive-holt", "oracle"}

// Run executes the scenario once per policy. Every policy sees the same
// fleet, seed, and chaos schedule; only the forecasts differ.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	fleet, err := workload.Generate(spec.Fleet)
	if err != nil {
		return nil, fmt.Errorf("ctleval: generate fleet: %w", err)
	}
	if spec.Opts.Control != nil || spec.Opts.Observe != nil {
		return nil, fmt.Errorf("ctleval: Spec.Opts.Control/Observe must be nil; the harness owns the control loop")
	}
	if spec.Opts.Scenario != nil {
		return nil, fmt.Errorf("ctleval: Spec.Opts.Scenario must be nil; set Spec.Scenario (the spec string) and the harness binds it")
	}
	var wl scenario.Workload
	if spec.Scenario != "" {
		built, err := scenario.Build(spec.Scenario)
		if err != nil {
			return nil, fmt.Errorf("ctleval: %w", err)
		}
		wl, err = built.Bind(fleet)
		if err != nil {
			return nil, fmt.Errorf("ctleval: %w", err)
		}
	}
	policies := spec.Policies
	if len(policies) == 0 {
		policies = DefaultPolicies
	}
	sim := ebs.New(fleet)
	rep := &Report{}
	for _, name := range policies {
		pol, err := control.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("ctleval: %w", err)
		}
		opts := spec.Opts
		opts.Scenario = wl
		var cst chaos.Stats
		if opts.Chaos != nil {
			opts.ChaosStats = &cst
		}
		ds, plan, err := sim.RunControlled(ctx, opts, pol, spec.Control)
		if err != nil {
			return nil, fmt.Errorf("ctleval: policy %s: %w", name, err)
		}
		imb := control.Imbalance(plan.BSLoad)
		out := Outcome{
			Policy:     name,
			Decisions:  len(plan.Decisions),
			MeanCoV:    imb.MeanCoV,
			MaxCoV:     imb.MaxCoV,
			PeakShare:  imb.PeakShare,
			FaultedIOs: cst.FaultedIOs,
			LogFP:      plan.LogFingerprint(),
			DatasetFP:  invariant.Fingerprint(ds),
		}
		for _, d := range plan.Decisions {
			switch d.Kind {
			case control.DecMigrate:
				out.Migrations++
			case control.DecEvacuate:
				out.Evacuations++
			case control.DecLend:
				out.Lends++
			case control.DecRebind:
				out.Rebinds++
			}
		}
		rep.Epochs = len(plan.BSLoad)
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}

// Find returns the outcome row of one policy, or nil.
func (r *Report) Find(policy string) *Outcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].Policy == policy {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// String renders the side-by-side table the CLI prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %6s %6s %6s %6s %8s\n",
		"policy", "meanCoV", "maxCoV", "peakShr", "migr", "evac", "lend", "rebind", "faulted")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%-16s %9.4f %9.4f %9.4f %6d %6d %6d %6d %8d\n",
			o.Policy, o.MeanCoV, o.MaxCoV, o.PeakShare,
			o.Migrations, o.Evacuations, o.Lends, o.Rebinds, o.FaultedIOs)
	}
	return b.String()
}
