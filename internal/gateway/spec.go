// Package gateway is the serving plane: a persistent multi-tenant service
// that accepts skewness-study submissions over the netblock protocol's
// gateway ops (SubmitStudy, StudyStatus, StreamSnapshot, CancelStudy,
// TenantStats), queues them FIFO per tenant behind token-bucket submission
// caps, dequeues with weighted-fair queueing, and executes each study either
// in-process (ebs.Run) or on the replicated fabric. Tenants can stream
// incremental sketch snapshots of a running study and the final answer is
// always byte-identical to a single-process run of the same spec — including
// runs where chaos kills the acting fabric leader mid-study. See DESIGN.md,
// "Serving plane".
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/scenario"
	"ebslab/internal/workload"
)

// StudySpec is a tenant's study request: the seed-addressed slice of the
// synthetic fleet to observe and how to sample it. The zero value of every
// field except Seed means "gateway default" (see withDefaults); the mapping
// from spec to fleet configuration and run options is exported precisely so
// test oracles can run the identical study through ebs.Run directly.
type StudySpec struct {
	// Seed selects the fleet (same seed, same fleet, same traffic).
	Seed int64
	// DurationSec is the observation window (default 8).
	DurationSec int
	// Nodes is the compute-node count of the single-DC study fleet
	// (default 4).
	Nodes int
	// Users is the tenant count inside the study fleet (default 16).
	Users int
	// MaxVDs bounds how many virtual disks are simulated (0 = all).
	MaxVDs int
	// EventSampleEvery thins the generated IO stream (default 8).
	EventSampleEvery int
	// TraceSampleEvery is the per-IO trace sampling rate (default 1).
	TraceSampleEvery int
	// Shards is the fabric shard count for distributed execution (0 =
	// fabric default; ignored for in-process execution).
	Shards int
	// LeaderKills schedules chaos kills of the acting fabric leader
	// mid-study. Requires the gateway to run a replicated fabric.
	LeaderKills int
	// Check runs the invariant suite over the study.
	Check bool
	// Control, when non-empty, runs the study through the mitigation
	// control plane (ebs.RunControlled) under the named policy — one of
	// control.ByName's: noop, reactive, predictive[-holt|-arima|-gbt],
	// oracle. The control loop is sequential over epochs, so controlled
	// studies always execute in-process: Shards and LeaderKills must be
	// zero.
	Control string
	// ControlEpochSec is the control epoch length (default: an eighth of
	// the study window, at least 1s — eight control decisions per study).
	// Must be zero when Control is empty.
	ControlEpochSec int
	// Scenario, when non-empty, reshapes the study fleet's traffic with a
	// scenario-library spec string ("bufferbloat", "elastic,step=4", ...).
	// Replay scenarios are not servable — they read server-local trace
	// files, which an untrusted submission must not be able to do; run them
	// through cmd/ebssim instead. Composes with Control (controlled studies
	// stay in-process) and with fabric execution (workers rebuild the
	// scenario from the spec string).
	Scenario string
}

// Spec bounds: the gateway decodes specs from untrusted connections, so every
// dimension is capped to what the serving host can actually execute.
const (
	maxTenantLen   = 64
	maxDuration    = 3600
	maxNodes       = 1024
	maxUsers       = 4096
	maxSpecVDs     = 1 << 20
	maxSampling    = 1 << 20
	maxSpecShards  = 256
	maxKills       = 8
	maxControlLen  = 32
	maxScenarioLen = 128
)

// withDefaults fills zero-valued dimensions with the gateway's laptop-scale
// study defaults. Submissions are normalized before keying, so two specs that
// differ only in spelled-out defaults content-address identically.
func (s StudySpec) withDefaults() StudySpec {
	if s.DurationSec == 0 {
		s.DurationSec = 8
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.Users == 0 {
		s.Users = 16
	}
	if s.EventSampleEvery == 0 {
		s.EventSampleEvery = 8
	}
	if s.TraceSampleEvery == 0 {
		s.TraceSampleEvery = 1
	}
	if s.Control != "" && s.ControlEpochSec == 0 {
		s.ControlEpochSec = s.DurationSec / 8
		if s.ControlEpochSec < 1 {
			s.ControlEpochSec = 1
		}
	}
	return s
}

// Validate bounds a normalized spec. Call after withDefaults.
func (s StudySpec) Validate() error {
	for _, c := range []struct {
		name    string
		v       int
		min, mx int
	}{
		{"DurationSec", s.DurationSec, 1, maxDuration},
		{"Nodes", s.Nodes, 1, maxNodes},
		{"Users", s.Users, 1, maxUsers},
		{"MaxVDs", s.MaxVDs, 0, maxSpecVDs},
		{"EventSampleEvery", s.EventSampleEvery, 1, maxSampling},
		{"TraceSampleEvery", s.TraceSampleEvery, 1, maxSampling},
		{"Shards", s.Shards, 0, maxSpecShards},
		{"LeaderKills", s.LeaderKills, 0, maxKills},
	} {
		if c.v < c.min || c.v > c.mx {
			return fmt.Errorf("gateway: spec %s is %d, want [%d, %d]", c.name, c.v, c.min, c.mx)
		}
	}
	if s.Scenario != "" {
		if len(s.Scenario) > maxScenarioLen {
			return fmt.Errorf("gateway: spec Scenario is %d bytes, want <= %d", len(s.Scenario), maxScenarioLen)
		}
		built, err := scenario.Build(s.Scenario)
		if err != nil {
			return err
		}
		if built.Name() == "replay" {
			return fmt.Errorf("gateway: replay scenarios read server-local trace files and are not servable; run them through cmd/ebssim")
		}
	}
	if s.Control == "" {
		if s.ControlEpochSec != 0 {
			return fmt.Errorf("gateway: spec ControlEpochSec %d without a Control policy", s.ControlEpochSec)
		}
		return nil
	}
	if len(s.Control) > maxControlLen {
		return fmt.Errorf("gateway: spec Control name is %d bytes, want <= %d", len(s.Control), maxControlLen)
	}
	if _, err := control.ByName(s.Control); err != nil {
		return err
	}
	if s.ControlEpochSec < 1 || s.ControlEpochSec > s.DurationSec {
		return fmt.Errorf("gateway: spec ControlEpochSec %d, want [1, %d]", s.ControlEpochSec, s.DurationSec)
	}
	if s.Shards != 0 || s.LeaderKills != 0 {
		return fmt.Errorf("gateway: controlled studies run in-process (the control loop is sequential over epochs); Shards and LeaderKills must be 0")
	}
	return nil
}

// FleetConfig maps the spec onto a workload generation recipe, using the same
// single-DC projection as cmd/ebssim so a gateway study and a CLI run of the
// same dimensions observe the identical fleet.
func (s StudySpec) FleetConfig() workload.Config {
	s = s.withDefaults()
	cfg := workload.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.DCs = 1
	cfg.NodesPerDC = s.Nodes
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = s.Users
	cfg.DurationSec = s.DurationSec
	return cfg
}

// RunOptions maps the spec onto engine options. The gateway adds its own
// Stream/Snapshots destinations per execution; chaos leader kills are fabric
// configuration, not engine options, and are likewise added at run time.
func (s StudySpec) RunOptions() ebs.Options {
	s = s.withDefaults()
	return ebs.Options{
		DurationSec:      s.DurationSec,
		TraceSampleEvery: s.TraceSampleEvery,
		EventSampleEvery: s.EventSampleEvery,
		MaxVDs:           s.MaxVDs,
		Check:            s.Check,
	}
}

// BindScenario rebuilds the spec's scenario from its spec string and binds it
// to fleet, which must be generated from FleetConfig — exactly what every
// execution of the spec does, in-process or on a fabric worker. It returns
// nil when the spec names no scenario.
func (s StudySpec) BindScenario(fleet *workload.Fleet) (scenario.Workload, error) {
	if s.Scenario == "" {
		return nil, nil
	}
	built, err := scenario.Build(s.Scenario)
	if err != nil {
		return nil, err
	}
	return built.Bind(fleet)
}

// key is the spec's content address: the hash of its canonical (normalized,
// fixed-width) encoding. Completed studies are stored under this key, so a
// re-submission of an identical spec — by any tenant — is answered from the
// finished result instead of re-running the study.
func (s StudySpec) key() string {
	s = s.withDefaults()
	b := make([]byte, 41, 41+1+len(s.Control)+4)
	binary.LittleEndian.PutUint64(b[0:], uint64(s.Seed))
	binary.LittleEndian.PutUint32(b[8:], uint32(s.DurationSec))
	binary.LittleEndian.PutUint32(b[12:], uint32(s.Nodes))
	binary.LittleEndian.PutUint32(b[16:], uint32(s.Users))
	binary.LittleEndian.PutUint32(b[20:], uint32(s.MaxVDs))
	binary.LittleEndian.PutUint32(b[24:], uint32(s.EventSampleEvery))
	binary.LittleEndian.PutUint32(b[28:], uint32(s.TraceSampleEvery))
	binary.LittleEndian.PutUint32(b[32:], uint32(s.Shards))
	binary.LittleEndian.PutUint32(b[36:], uint32(s.LeaderKills))
	if s.Check {
		b[40] = 1
	}
	// The control section is appended only for controlled studies, so every
	// pre-existing (uncontrolled) spec keeps its content address.
	if s.Control != "" {
		b = append(b, uint8(len(s.Control)))
		b = append(b, s.Control...)
		b = binary.LittleEndian.AppendUint32(b, uint32(s.ControlEpochSec))
	}
	// The scenario section is likewise append-only, tagged with 'S' (0x53):
	// a control suffix always starts with its length byte <= maxControlLen,
	// so the tag cannot collide with any pre-scenario encoding.
	if s.Scenario != "" {
		b = append(b, 'S', uint8(len(s.Scenario)))
		b = append(b, s.Scenario...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
