package chaos

import (
	"sync/atomic"

	"ebslab/internal/netblock"
	"ebslab/internal/xrand"
)

// NewFaultHook builds a netblock.FaultHook from the plan's Net rates. The
// n-th hook invocation draws from a splitmix64 stream over (seed, n), so a
// single-threaded exchange sequence replays the same faults for the same
// seed; under concurrent clients the per-request assignment of draws
// follows arrival order, but the fault *mix* still tracks the configured
// rates. A nil hook is returned when every rate is zero.
func (p *Plan) NewFaultHook(runSeed int64) netblock.FaultHook {
	if p.Net.Total() <= 0 {
		return nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = runSeed
	}
	base := uint64(xrand.Derive(seed, tagNet, 0))
	delayUS := p.Net.DelayUS
	if delayUS <= 0 {
		delayUS = 1000
	}
	n := p.Net
	var calls atomic.Uint64
	return func(*netblock.Request) netblock.FaultDecision {
		u := uniform(base, calls.Add(1))
		switch {
		case u < n.ResetRate:
			return netblock.FaultDecision{Fault: netblock.FaultReset}
		case u < n.ResetRate+n.DropRate:
			return netblock.FaultDecision{Fault: netblock.FaultDrop}
		case u < n.ResetRate+n.DropRate+n.DelayRate:
			return netblock.FaultDecision{DelayUS: delayUS}
		case u < n.ResetRate+n.DropRate+n.DelayRate+n.TruncateRate:
			return netblock.FaultDecision{Fault: netblock.FaultTruncate}
		case u < n.ResetRate+n.DropRate+n.DelayRate+n.TruncateRate+n.GarbageRate:
			return netblock.FaultDecision{Fault: netblock.FaultGarbage}
		case u < n.Total():
			return netblock.FaultDecision{Fault: netblock.FaultError}
		}
		return netblock.FaultDecision{}
	}
}

// uniform maps (base, i) to [0, 1).
func uniform(base, i uint64) float64 {
	return float64(xrand.Mix(base^i*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}
