package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"ebslab/internal/core"
	"ebslab/internal/hypervisor"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// figuresConfig is cmd/reproduce's -fast fleet at its default seed. The
// report's inputs are the fleet alone, and fleet seeds 11-15 moved the
// report's time by a fifth (the cache replays follow each fleet's busiest
// disks) and its analysed volume fourfold, so the fleet is pinned and the
// benchmark seed does not change this workload's input.
func figuresConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = 1
	cfg.DCs = 2
	cfg.NodesPerDC = 40
	cfg.BSPerDC = 12
	cfg.Users = 60
	cfg.DurationSec = 240
	return cfg
}

// Replay caps of the caching and page-cache methods, lowered from their
// defaults (16-48 VDs x 8,000-20,000 events) so that one report takes about
// 4.5 s on 2 CPUs and a run holds several; the cache replays are still 60%
// of the report.
const (
	figMaxVDs    = 8
	figMaxEvents = 2000
)

// figMethod is one Study method call of the report, tagged with the layer
// it drives.
type figMethod struct {
	name, layer string
	run         func(*core.Study) string
}

// figMethods is cmd/reproduce's method list, in its order.
func figMethods() []figMethod {
	m := []figMethod{
		{"Table2Summary", "core", func(s *core.Study) string { return s.Table2Summary().Render() }},
		{"Table3Baseline", "core", func(s *core.Study) string { return s.Table3Baseline().Render() }},
		{"Table4ByApp", "core", func(s *core.Study) string { return s.Table4ByApp().Render() }},
		{"Fig2aWTCoV", "hypervisor", func(s *core.Study) string { return s.Fig2aWTCoV(nil).Render() }},
		{"Fig2bThreeTier", "hypervisor", func(s *core.Study) string { return s.Fig2bThreeTier().Render() }},
		{"Fig2cHottestQP", "hypervisor", func(s *core.Study) string { return s.Fig2cHottestQP().Render() }},
		{"Fig2dRebinding", "hypervisor", func(s *core.Study) string { return s.Fig2dRebinding(core.Fig2dOptions{}).Render() }},
		{"Fig2efBurstSeries", "hypervisor", func(s *core.Study) string { return s.Fig2efBurstSeries(core.Fig2efOptions{}).Render() }},
		{"Fig3aSingleVDCase", "throttle", func(s *core.Study) string { return s.Fig3aSingleVDCase().Render() }},
		{"Fig3bRAR", "throttle", func(s *core.Study) string { return s.Fig3bRAR(false).Render() }},
		{"Fig3bRAR/multiVM", "throttle", func(s *core.Study) string { return s.Fig3bRAR(true).Render() }},
		{"Fig3deReduction", "throttle", func(s *core.Study) string { return s.Fig3deReduction(core.Fig3deOptions{}).Render() }},
		{"Fig3fgLendingGain", "throttle", func(s *core.Study) string { return s.Fig3fgLendingGain(core.Fig3fgOptions{}).Render() }},
		{"Fig3fgLendingGain/multiVM", "throttle", func(s *core.Study) string {
			return s.Fig3fgLendingGain(core.Fig3fgOptions{MultiVMNode: true}).Render()
		}},
		{"Fig4aFrequentMigration", "balancer", func(s *core.Study) string {
			return s.Fig4aFrequentMigration(core.Fig4aOptions{}).Render()
		}},
		{"Fig4bImporterSelection", "balancer", func(s *core.Study) string {
			return s.Fig4bImporterSelection(core.Fig4bOptions{}).Render()
		}},
		{"Fig4cPredictionMSE", "predict", func(s *core.Study) string { return s.Fig4cPredictionMSE(core.Fig4cOptions{}).Render() }},
		{"Fig5aReadWriteCoV", "balancer", func(s *core.Study) string { return s.Fig5aReadWriteCoV(core.Fig5aOptions{}).Render() }},
		{"Fig5bSegmentDominance", "balancer", func(s *core.Study) string {
			return s.Fig5bSegmentDominance(core.Fig5bOptions{}).Render()
		}},
		{"Fig5cWriteThenRead", "balancer", func(s *core.Study) string { return s.Fig5cWriteThenRead(core.Fig5cOptions{}).Render() }},
		{"Fig6HottestBlocks", "cache", func(s *core.Study) string {
			return s.Fig6HottestBlocks(core.Fig6Options{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
		{"Fig7aHitRatio", "cache", func(s *core.Study) string {
			return s.Fig7aHitRatio(core.Fig7aOptions{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
		{"Fig7bcLatencyGain", "cache", func(s *core.Study) string {
			return s.Fig7bcLatencyGain(core.Fig7bcOptions{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
		{"Fig7dSpaceUtilization", "cache", func(s *core.Study) string {
			return s.Fig7dSpaceUtilization(core.Fig7dOptions{}).Render()
		}},
		{"AblateHosting", "hypervisor", func(s *core.Study) string { return s.AblateHosting(core.HostingOptions{}).Render() }},
		{"AblateCachePolicy", "cache", func(s *core.Study) string {
			return s.AblateCachePolicy(core.CachePolicyOptions{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
		{"AblateCacheDeployment", "cache", func(s *core.Study) string {
			return s.AblateCacheDeployment(core.CacheDeploymentOptions{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
		{"AblatePredictors", "predict", func(s *core.Study) string { return s.AblatePredictors(core.PredictorOptions{}).Render() }},
		{"AblateFailover", "balancer", func(s *core.Study) string { return s.AblateFailover(core.FailoverOptions{}).Render() }},
		{"StudyPageCache", "guestcache", func(s *core.Study) string {
			return s.StudyPageCache(core.PageCacheOptions{MaxVDs: figMaxVDs, MaxEventsPerVD: figMaxEvents}).Render()
		}},
	}
	for _, p := range []int{1, 10, 50} {
		p := p
		m = append(m, figMethod{fmt.Sprintf("RebindWithConfig/%d", p), "hypervisor", func(s *core.Study) string {
			r := s.RebindWithConfig(core.RebindOptions{MaxNodes: 24, WinSec: 10, Config: hypervisor.RebindConfig{PeriodSlots: p, Trigger: 1.2, EvalSlots: 5}})
			return fmt.Sprintf("rebind period %d0 ms: improved %.1f%%, median gain %.2f, rebinds/slot %.4f\n",
				p, 100*r.FracImproved, r.MedianGain, r.MedianRatio/float64(p))
		}})
	}
	for _, pol := range []hypervisor.DispatchPolicy{
		hypervisor.DispatchSingleWT, hypervisor.DispatchLeastLoaded, hypervisor.DispatchRoundRobinIO,
	} {
		pol := pol
		m = append(m, figMethod{fmt.Sprintf("AblateDispatch/%s", pol), "hypervisor", func(s *core.Study) string {
			r := s.AblateDispatch(core.DispatchOptions{MaxNodes: 24, WinSec: 10, Policy: pol})
			return fmt.Sprintf("dispatch %s: median WT-CoV %.2f, %d sync ops over %d nodes\n",
				pol, r.MedianCoV, r.SyncOps, r.Nodes)
		}})
	}
	return m
}

// report runs every method on a fresh Study over the fleet and returns the
// digest of the rendered report and the IO count of the analysed window.
// Each method call is a span under one report span when traced.
func report(r *Run, fleet *workload.Fleet, workers int, group string) (string, float64) {
	s := core.NewStudyFromFleet(fleet)
	s.Workers = workers
	var b strings.Builder
	root := r.Trace.Begin("core.Study", group, 0)
	for _, m := range figMethods() {
		id := r.Trace.Begin("study."+m.layer+"/"+m.name, group, root)
		b.WriteString(m.run(s))
		r.Trace.End(id)
	}
	r.Trace.End(root)
	t2 := s.Table2Summary()
	ios := (t2.EstReadTraceM + t2.EstWriteTraceM) * 1e6 * trace.SampleRate
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), ios
}

func setupFigures(r *Run) (*workload.Fleet, float64, error) {
	var fleet *workload.Fleet
	s, err := setupTimes(setupRepeats, func() error {
		id := r.Trace.Begin("workload.Generate", "setup", 0)
		st, err := core.NewStudy(figuresConfig())
		r.Trace.End(id)
		if err != nil {
			return err
		}
		fleet = st.Fleet
		return nil
	})
	return fleet, s, err
}

func runFigures(ctx context.Context, r *Run) error {
	if r.Trace != nil {
		return traceFigures(r)
	}
	fleet, setup, err := setupFigures(r)
	if err != nil {
		return err
	}
	var digests []string
	var rates, durs []float64
	r.window(func(i int) time.Duration {
		var digest string
		var ios float64
		d, _ := timed(func() error {
			digest, ios = report(r, fleet, r.Procs, "report")
			return nil
		})
		digests = append(digests, digest)
		rates = append(rates, ios/secs(d))
		durs = append(durs, msec(d))
		return d
	})
	heap := retainedHeapMiB()
	ref, _ := report(r, fleet, 1, "reference")
	for i, d := range digests {
		r.Checks.Check(fmt.Sprintf("report %d vs Study.Workers = 1", i), d, ref)
	}
	fmt.Printf("reports %d, ms %.0f, digest %s\n", len(digests), durs, ref)
	r.Metrics["setup_s"] = setup
	r.Metrics["ios_per_s"] = Median(rates)
	r.Metrics["study_p50_ms"] = Median(durs)
	r.Metrics["heap_retained_mib"] = heap
	return nil
}

// traceFigures times one untraced report as the overhead base, then one
// report with a span around every Study method, each summed into the layer
// the method drives.
func traceFigures(r *Run) error {
	fleet, _, err := setupFigures(r)
	if err != nil {
		return err
	}
	d0, _ := timed(func() error { report(&Run{}, fleet, r.Procs, ""); return nil })
	var digest string
	mib, _, _ := allocDelta(func() error {
		digest, _ = report(r, fleet, r.Procs, "report")
		return nil
	})
	ref, _ := report(&Run{}, fleet, 1, "")
	r.Checks.Check("traced report vs Study.Workers = 1", digest, ref)

	spans := r.Trace.Spans()
	whole := secs(Total(spans, "core.Study"))
	r.Metrics["bench.trace_overhead"] = whole / secs(d0)
	r.Metrics["figures.alloc_mib"] = mib
	r.Metrics["workload.generate_s"] = secs(Total(spans, "workload.Generate")) / setupRepeats
	r.Metrics["core.aggregate_share"] = secs(TotalPrefix(spans, "study.core/")) / whole
	for _, l := range []string{"hypervisor", "throttle", "balancer", "predict", "cache", "guestcache"} {
		r.Metrics[l+".share"] = secs(TotalPrefix(spans, "study."+l+"/")) / whole
	}
	return nil
}
