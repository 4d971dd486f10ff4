// Package balancer implements the inter-BlockServer load balancer of §6 and
// Appendix A: a periodic heuristic that detects exporters (BlockServers
// whose traffic exceeds 1.2x the cluster average), peels off their hottest
// segments until roughly 0.2x the average traffic has moved, and ships them
// to an importer chosen by a pluggable policy. The five importer-selection
// policies of Figure 4(b) are provided, together with the migration metrics
// the paper uses (frequent-migration proportion, normalized migration
// intervals) and the Write-Only / Write-then-Read variants of Figure 5(c).
package balancer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// RW is one period's read/write byte totals for a segment.
type RW struct {
	R float64
	W float64
}

// Total returns R+W.
func (x RW) Total() float64 { return x.R + x.W }

// Config tunes Algorithm 1.
type Config struct {
	// ExporterThreshold is the multiple of the cluster average at which a
	// BlockServer becomes an exporter (1.2 in the paper).
	ExporterThreshold float64
	// MigrateFraction is the share of average traffic each exporter sheds
	// per period (0.2 in the paper).
	MigrateFraction float64
	// ImprovementMargin gates segment movability: a segment is movable only
	// if landing it on the currently coldest BS leaves that BS below
	// ImprovementMargin x the exporter's load — otherwise the move merely
	// relocates the hotspot and ping-pongs forever. Algorithm 1 leaves this
	// implicit; production balancers bound the bundle. Default 0.9.
	ImprovementMargin float64
	// Mode selects which traffic the balancer acts on. WriteThenRead's read
	// pass reuses the write pass's importer policy, fed with read history.
	Mode Mode
	// PeriodSec is the simulated length of one balancing period in seconds,
	// used only to stamp Migration.AtSec so the migration log can be joined
	// against time-stamped logs (the control plane's decision log). Zero or
	// negative means 1: AtSec equals the period index.
	PeriodSec int
}

// Mode selects the migration algorithm of Figure 5(c).
type Mode uint8

// Balancing modes.
const (
	// WriteOnly migrates based solely on write traffic (production default,
	// §2.2).
	WriteOnly Mode = iota
	// WriteThenRead first balances write traffic, then runs a second pass
	// balancing read traffic.
	WriteThenRead
)

func (m Mode) String() string {
	if m == WriteOnly {
		return "write-only"
	}
	return "write-then-read"
}

// DefaultConfig matches Appendix A.
func DefaultConfig() Config {
	return Config{ExporterThreshold: 1.2, MigrateFraction: 0.2, ImprovementMargin: 0.9, Mode: WriteOnly}
}

// Migration records one segment move.
type Migration struct {
	Period int
	// AtSec is the simulated second the move takes effect: the period (or
	// control epoch) boundary, Period x Config.PeriodSec. Logs produced by
	// different subsystems join on this timestamp.
	AtSec int
	Seg   cluster.SegmentID
	From  cluster.StorageNodeID
	To    cluster.StorageNodeID
	// Read reports whether the move came from the read-balancing pass.
	Read bool
	// Failover reports whether the move evacuated a crashed BlockServer
	// (RunWithFailures) rather than rebalancing load.
	Failover bool
}

// Result summarizes one balancer run.
type Result struct {
	Policy     string
	Mode       Mode
	Migrations []Migration
	// WriteCoV[p] and ReadCoV[p] are the normalized CoVs of per-BS write and
	// read traffic in period p, measured under the placement in effect
	// during that period (i.e. after the previous period's migrations).
	WriteCoV []float64
	ReadCoV  []float64
}

// Run simulates the balancer over the per-segment period traffic matrix
// (indexed [segment][period], as produced by workload.SegmentPeriodMatrix).
// The starting placement is cloned; the caller's map is not mutated.
func Run(seg2bs *cluster.SegmentMap, segTraffic [][]RW, policy ImporterPolicy, cfg Config) Result {
	return RunWithFailures(seg2bs, segTraffic, policy, cfg, nil, FailoverGreedy, nil)
}

// DownFn reports whether a BlockServer is inside a crash window during a
// balancing period (chaos.Schedule.DownFnPeriods adapts a fault schedule to
// this shape).
type DownFn func(period int, bs cluster.StorageNodeID) bool

// RunWithFailures is Run under a crash schedule. At the start of each
// period, every newly-crashed BlockServer is evacuated: its segments are
// re-homed across the healthy survivors by the failover policy (recorded as
// Failover migrations). While down, a BS is excluded from exporter scans and
// importer selection — if the importer policy nominates a casualty, the
// balancer falls back to the least-loaded healthy BS. A recovered BS rejoins
// empty the following period and is re-admitted by normal importer
// selection. A nil down means no BlockServer ever crashes: that is Run.
func RunWithFailures(seg2bs *cluster.SegmentMap, segTraffic [][]RW, policy ImporterPolicy,
	cfg Config, down DownFn, fpol FailoverPolicy, rng *rand.Rand) Result {
	if len(segTraffic) != seg2bs.Len() {
		panic(fmt.Sprintf("balancer: %d traffic rows for %d segments", len(segTraffic), seg2bs.Len()))
	}
	if cfg.ExporterThreshold <= 1 {
		cfg.ExporterThreshold = 1.2
	}
	if cfg.MigrateFraction <= 0 {
		cfg.MigrateFraction = 0.2
	}
	placement := seg2bs.Clone()
	nBS := placement.NumBS()
	var nPeriods int
	if len(segTraffic) > 0 {
		nPeriods = len(segTraffic[0])
	}
	res := Result{Policy: policy.Name(), Mode: cfg.Mode}

	// bsHistW/bsHistR: per-BS traffic per period under the placement in
	// effect at each period — the history importer policies consult.
	bsHistW := make([][]float64, nBS)
	bsHistR := make([][]float64, nBS)
	for b := 0; b < nBS; b++ {
		bsHistW[b] = make([]float64, 0, nPeriods)
		bsHistR[b] = make([]float64, 0, nPeriods)
	}

	// isDown stays nil without a crash schedule: balancePass then skips
	// every casualty check.
	var wasDown, isDown []bool
	if down != nil {
		wasDown = make([]bool, nBS)
		isDown = make([]bool, nBS)
	}
	for p := 0; p < nPeriods; p++ {
		if down != nil {
			for b := 0; b < nBS; b++ {
				isDown[b] = down(p, cluster.StorageNodeID(b))
			}
		}
		// Evacuate newly-crashed BSs before measuring: their segments are
		// unreachable and must be re-homed on the healthy survivors.
		for b := 0; b < len(isDown); b++ {
			if !isDown[b] || wasDown[b] {
				continue
			}
			failed := cluster.StorageNodeID(b)
			orphans := placement.SegmentsOn(failed)
			FailoverExcluding(placement, segTraffic, p, failed, fpol, rng,
				func(id cluster.StorageNodeID) bool { return isDown[id] })
			for _, seg := range orphans {
				to := placement.BSOf(seg)
				if to == failed {
					continue // no healthy survivor could take it
				}
				res.Migrations = append(res.Migrations, Migration{
					Period: p, AtSec: p * periodSec(cfg), Seg: seg, From: failed, To: to, Failover: true,
				})
			}
		}

		// Measure this period under the current placement.
		bsW := make([]float64, nBS)
		bsR := make([]float64, nBS)
		for seg, rows := range segTraffic {
			b := placement.BSOf(cluster.SegmentID(seg))
			bsW[b] += rows[p].W
			bsR[b] += rows[p].R
		}
		res.WriteCoV = append(res.WriteCoV, stats.NormCoV(bsW))
		res.ReadCoV = append(res.ReadCoV, stats.NormCoV(bsR))
		for b := 0; b < nBS; b++ {
			bsHistW[b] = append(bsHistW[b], bsW[b])
			bsHistR[b] = append(bsHistR[b], bsR[b])
		}

		// Write-balancing pass (Algorithm 1), then the optional read pass.
		res.Migrations = append(res.Migrations,
			balancePass(placement, segTraffic, p, bsW, bsHistW, policy, cfg, false, isDown)...)
		if cfg.Mode == WriteThenRead {
			res.Migrations = append(res.Migrations,
				balancePass(placement, segTraffic, p, bsR, bsHistR, policy, cfg, true, isDown)...)
		}
		copy(wasDown, isDown)
	}
	return res
}

// periodSec returns the configured period length for AtSec stamping.
func periodSec(cfg Config) int {
	if cfg.PeriodSec > 0 {
		return cfg.PeriodSec
	}
	return 1
}

// balancePass runs one Algorithm 1 sweep over the metric in bsLoad (write
// bytes, or read bytes for the read pass), mutating placement. A non-nil
// isDown excludes crashed BSs from both sides of every move.
func balancePass(placement *cluster.SegmentMap, segTraffic [][]RW, period int,
	bsLoad []float64, bsHist [][]float64, policy ImporterPolicy, cfg Config, readPass bool,
	isDown []bool) []Migration {

	nBS := len(bsLoad)
	avg := stats.Mean(bsLoad)
	if !(avg > 0) {
		return nil
	}
	metric := func(seg int) float64 {
		if readPass {
			return segTraffic[seg][period].R
		}
		return segTraffic[seg][period].W
	}

	var out []Migration
	for b := 0; b < nBS; b++ {
		if isDown != nil && isDown[b] {
			continue // a crashed BS exports nothing (it was evacuated)
		}
		if bsLoad[b] < cfg.ExporterThreshold*avg {
			continue
		}
		// sorted_segs <- sort({ws(k)}, descending)
		segs := placement.SegmentsOn(cluster.StorageNodeID(b))
		sort.Slice(segs, func(i, j int) bool { return metric(int(segs[i])) > metric(int(segs[j])) })

		// Movability: a segment may move only if placing it on the coldest
		// BS genuinely reduces the imbalance; otherwise it is pinned (the
		// hotspot would just relocate). A BS hot only because of pinned
		// segments is skipped — migration cannot fix it, only churn.
		margin := cfg.ImprovementMargin
		if margin <= 0 || margin > 1 {
			margin = 0.9
		}
		minLoad := math.Inf(1)
		for ob := 0; ob < nBS; ob++ {
			if isDown != nil && isDown[ob] {
				continue // the coldest *healthy* BS is what matters
			}
			if ob != b && bsLoad[ob] < minLoad {
				minLoad = bsLoad[ob]
			}
		}
		movable := func(v float64) bool { return minLoad+v <= margin*bsLoad[b] }
		var pinned float64
		for _, seg := range segs {
			if v := metric(int(seg)); !movable(v) {
				pinned += v
			}
		}
		if bsLoad[b]-pinned < cfg.ExporterThreshold*avg {
			continue
		}

		// mig_segs <- top-x movable segments whose summed traffic exceeds
		// 0.2*avg.
		var moving []cluster.SegmentID
		var sum float64
		for _, seg := range segs {
			if sum >= cfg.MigrateFraction*avg {
				break
			}
			v := metric(int(seg))
			if v <= 0 {
				break
			}
			if !movable(v) {
				continue // pinned: would just relocate the hotspot
			}
			moving = append(moving, seg)
			sum += v
		}
		if len(moving) == 0 {
			continue
		}
		var importer cluster.StorageNodeID
		if pa, ok := policy.(PlacementAware); ok {
			importer = pa.SelectPlaced(placement, segTraffic, period, readPass, cluster.StorageNodeID(b))
		} else {
			importer = policy.Select(bsHist, period, cluster.StorageNodeID(b))
		}
		if importer < 0 || int(importer) >= nBS || importer == cluster.StorageNodeID(b) {
			continue
		}
		if isDown != nil && isDown[importer] {
			// The policy nominated a casualty; fall back to the least-loaded
			// healthy BS so the exporter still sheds its bundle.
			importer = -1
			for ob := 0; ob < nBS; ob++ {
				if ob == b || isDown[ob] {
					continue
				}
				if importer < 0 || bsLoad[ob] < bsLoad[importer] {
					importer = cluster.StorageNodeID(ob)
				}
			}
			if importer < 0 {
				continue // no healthy importer exists
			}
		}
		for _, seg := range moving {
			placement.Move(seg, importer)
			out = append(out, Migration{
				Period: period, AtSec: period * periodSec(cfg), Seg: seg,
				From: cluster.StorageNodeID(b), To: importer, Read: readPass,
			})
		}
		// Keep the in-period accounting coherent so later exporters see the
		// importer's new load (Algorithm 1 line 8).
		bsLoad[importer] += sum
		bsLoad[b] -= sum
	}
	return out
}
