// Package scenario is the workload scenario library: a registry of named,
// parameterised traffic shapes plus a foreign-trace replay ingester, all
// expressed against the existing workload/engine contracts so every scenario
// runs unmodified through the columnar trace.Batch hot path — under sketches,
// invariants, chaos, the fabric, the gateway, and the mitigation control
// plane.
//
// A scenario is selected by a spec string, `name` or `name,key=val,...`
// (e.g. "bufferbloat,period=16,duty=0.5"). Build parses and validates the
// spec; Bind attaches the result to a generated fleet, returning a Workload
// the engine consumes via ebs.Options.Scenario. Scenarios replace the
// fleet's native per-second demand series and/or its event generator but
// never its topology: placement, queue pairs, worker threads, and capacity
// all stay fleet-derived, which is what keeps every invariant law and every
// downstream consumer oblivious to where the traffic came from.
//
// Determinism contract: every scenario derives its randomness from
// (fleet seed, scenario tag, VD) splitmix64 streams, with all per-VD mutable
// state local to the generating call — so datasets are byte-identical for
// every worker count, and fingerprints are stable enough to pin in golden
// fixtures. See DESIGN.md, "Scenario library & trace replay".
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// Workload is a bound scenario: a fleet whose traffic is reshaped. The
// engine calls SeriesInto once per VD for the throttle replay and GenEvents
// once per VD for the IO stream; both must be pure functions of
// (fleet seed, vd) so the run is worker-count invariant.
type Workload interface {
	// Name is the scenario's registered name.
	Name() string
	// Spec is the canonical spec string (name,key=val with sorted keys):
	// rebuilding from it reproduces this scenario exactly, which is how the
	// fabric ships scenarios to workers and the gateway content-addresses
	// them.
	Spec() string
	// Fleet is the fleet this scenario is bound to.
	Fleet() *workload.Fleet
	// SeriesInto fills vd's per-second demand series over [0, durSec),
	// replacing the fleet's native series. buf is reused engine scratch.
	SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample
	// GenEvents emits vd's IO event stream over the series SeriesInto
	// produced. sampleEvery thins generation (like the fleet generator);
	// boost is the chaos storm multiplier (nil = 1) — scenarios that
	// synthesize events must honor it so traffic storms keep working.
	GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(sec int) float64, emit func(workload.Event))
}

// CapScheduler is implemented by scenarios that re-shape per-VD throttle
// caps over time (the elastic scenario). CapsAt must be a pure function of
// its arguments.
type CapScheduler interface {
	CapsAt(vd cluster.VDID, base throttle.Caps, sec int) throttle.Caps
}

// DelayModel is implemented by scenarios that add a latency term derived
// from the demand series (the bufferbloat scenario's device-side queue).
// DelaySeries returns per-second extra latency in microseconds plus the
// stage it lands on; buf is reused engine scratch.
type DelayModel interface {
	DelaySeries(buf []float64, vd cluster.VDID, series []workload.Sample) ([]float64, trace.Stage)
}

// RecordSource is implemented by scenarios that carry fully-formed trace
// records (native-schema replay): the engine appends them to the batch
// pipeline verbatim — preserving measured latencies and placement — instead
// of generating events. SourcesRecords reports whether this instance
// actually is record-sourced (a foreign-schema replay is not: it normalises
// into events and takes the generated path).
type RecordSource interface {
	SourcesRecords() bool
	// Records returns vd's record stream in input order. The returned slice
	// is read-only shared state; callers must not mutate it.
	Records(vd cluster.VDID) []trace.Record
}

// Spec is the parsed form of a scenario spec string.
type Spec struct {
	Name   string
	Params map[string]string
}

// ParseSpec parses "name" or "name,key=val,...". Keys and the name are
// lower-cased; duplicate keys are rejected.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ",")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	if name == "" {
		return Spec{}, fmt.Errorf("scenario: empty scenario name in spec %q", s)
	}
	sp := Spec{Name: name, Params: map[string]string{}}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		eq := strings.IndexByte(kv, '=')
		if eq <= 0 {
			return Spec{}, fmt.Errorf("scenario: parameter %q in spec %q: want key=val", kv, s)
		}
		k := strings.ToLower(strings.TrimSpace(kv[:eq]))
		if _, dup := sp.Params[k]; dup {
			return Spec{}, fmt.Errorf("scenario: duplicate parameter %q in spec %q", k, s)
		}
		sp.Params[k] = strings.TrimSpace(kv[eq+1:])
	}
	return sp, nil
}

// String renders the canonical spec: name, then parameters sorted by key.
func (sp Spec) String() string {
	if len(sp.Params) == 0 {
		return sp.Name
	}
	keys := make([]string, 0, len(sp.Params))
	for k := range sp.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(sp.Name)
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(sp.Params[k])
	}
	return b.String()
}

// config is one scenario's validated parameter struct, ready to bind.
type config interface {
	// Validate rejects parameter values that have no meaning.
	Validate() error
	// bind attaches the config to a generated fleet.
	bind(spec Spec, f *workload.Fleet) (Workload, error)
}

// builder parses a Spec's parameters into a scenario config.
type builder func(sp Spec) (config, error)

// registry maps scenario names to their builders. Registration is static —
// scenarios are code, not plugins — so lookups need no locking.
var registry = map[string]builder{
	"bufferbloat": buildBufferbloat,
	"batchburst":  buildBatchBurst,
	"elastic":     buildElastic,
	"replay":      buildReplay,
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Known reports whether name is a registered scenario.
func Known(name string) bool { _, ok := registry[name]; return ok }

// Built is a parsed and validated scenario, not yet attached to a fleet.
// One Built may be bound to any number of fleets (the fabric binds the same
// spec on every worker).
type Built struct {
	spec Spec
	cfg  config
}

// Build parses and validates a spec string.
func Build(specStr string) (*Built, error) {
	sp, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	mk, ok := registry[sp.Name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %s)", sp.Name, strings.Join(Names(), ", "))
	}
	cfg, err := mk(sp)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Built{spec: sp, cfg: cfg}, nil
}

// Name returns the scenario's registered name.
func (b *Built) Name() string { return b.spec.Name }

// Spec returns the canonical spec string.
func (b *Built) Spec() string { return b.spec.String() }

// Bind attaches the scenario to a generated fleet, producing the Workload
// the engine runs. Replay scenarios do their (streaming) trace ingest here.
func (b *Built) Bind(f *workload.Fleet) (Workload, error) {
	if f == nil {
		return nil, fmt.Errorf("scenario: Bind needs a generated fleet")
	}
	return b.cfg.bind(b.spec, f)
}

// params walks a Spec's key=val pairs with typed accessors, collecting the
// first error and rejecting unknown keys once every known key was declared.
type params struct {
	sp   Spec
	seen map[string]bool
	err  error
}

func newParams(sp Spec) *params { return &params{sp: sp, seen: map[string]bool{}} }

func (p *params) raw(key string) (string, bool) {
	p.seen[key] = true
	v, ok := p.sp.Params[key]
	return v, ok
}

// Str reads a string parameter.
func (p *params) Str(key string, dst *string) {
	if v, ok := p.raw(key); ok {
		*dst = v
	}
}

// Int reads an integer parameter.
func (p *params) Int(key string, dst *int) {
	v, ok := p.raw(key)
	if !ok || p.err != nil {
		return
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.err = fmt.Errorf("scenario: parameter %s=%q: want an integer", key, v)
		return
	}
	*dst = n
}

// Float reads a float parameter.
func (p *params) Float(key string, dst *float64) {
	v, ok := p.raw(key)
	if !ok || p.err != nil {
		return
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.err = fmt.Errorf("scenario: parameter %s=%q: want a number", key, v)
		return
	}
	*dst = x
}

// Err returns the first parse error, or an unknown-key error naming the
// accepted keys.
func (p *params) Err() error {
	if p.err != nil {
		return p.err
	}
	for k := range p.sp.Params {
		if !p.seen[k] {
			known := make([]string, 0, len(p.seen))
			for s := range p.seen {
				known = append(known, s)
			}
			sort.Strings(known)
			return fmt.Errorf("scenario: %s has no parameter %q (have %s)", p.sp.Name, k, strings.Join(known, ", "))
		}
	}
	return nil
}

// Derived-RNG plumbing: scenarios split the fleet seed per (tag, entity)
// exactly like the workload layer, but under their own tags so a scenario
// never perturbs (or reuses) a fleet stream.
const (
	tagBloatPhase  = 0xB10A7
	tagBurstMember = 0xBB3E5
	tagBurstEvents = 0xBB3E6
	tagElasticPh   = 0xE1A57
	tagReplayPick  = 0x4E91A
)

// subSeed derives an independent stream seed from (master, tag, entity). It
// is not xrand.Derive: the golden scenario fixtures pin this derivation.
func subSeed(master int64, tag, entity uint64) int64 {
	return int64(xrand.Mix(uint64(master) ^ xrand.Mix(tag)<<1 ^ xrand.Mix(entity)))
}

// hash01 maps (master, tag, entity) to a uniform [0, 1) value without
// consuming any stream state.
func hash01(master int64, tag, entity uint64) float64 {
	return float64(uint64(subSeed(master, tag, entity))>>11) / float64(1<<53)
}

// newRand builds a fresh derived rand stream. Scenario generators hold all
// per-VD mutable state (including RNG position) in the generating call, so
// re-running a VD reproduces it bit for bit.
func newRand(master int64, tag, entity uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(master, tag, entity)))
}

// sectorSize mirrors the workload layer's alignment quantum.
const sectorSize = 4 << 10

// alignDown rounds x down to the sector boundary (never below zero).
func alignDown(x int64) int64 {
	a := x &^ (sectorSize - 1)
	if a < 0 {
		return 0
	}
	return a
}

// countFor turns a fractional expected count into an integer count by
// flooring and adding a Bernoulli remainder, preserving the mean (the same
// convention as the fleet generator).
func countFor(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := int(lambda)
	if rng.Float64() < lambda-float64(n) {
		n++
	}
	return n
}

// maxEventsPerSec mirrors the workload layer's per-second generation cap.
const maxEventsPerSec = 1 << 20
