package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// The serve load is an open loop: independent tenants submit studies at
// Poisson arrival times whether or not earlier ones finished, so a slow
// gateway faces a growing queue rather than a slower client.
const (
	// serveRate is the arrival rate in studies per second, about half of
	// what a 2-CPU host sustained. Grant-to-done averaged 41-57 ms over
	// 150-study samples (17-24 studies/s, one study at a time), but the
	// per-study cost is heavy-tailed: at 10/s, a seed whose schedule held a
	// multi-second study queued 16 deep and had submissions rejected.
	serveRate = 6.0
	// serveMinStudies keeps at least ten samples beyond each reported p95,
	// also for the per-grant percentiles after repeats are deduplicated.
	serveMinStudies = 300
	serveTenants    = 4
	// serveRepeatEvery and serveScenarioEvery: one submission in four
	// repeats an earlier spec (dedup), one new spec in four carries a
	// scenario.
	serveRepeatEvery   = 4
	serveScenarioEvery = 4
	// servePoll is the Status polling period; it bounds how late a
	// completion is seen.
	servePoll   = time.Millisecond
	serveDrain  = 60 * time.Second
	serveWorker = 2
)

var serveScenarios = []string{"bufferbloat", "batchburst", "elastic"}

// arrival is one scheduled submission.
type arrival struct {
	At     time.Duration
	Tenant string
	Spec   gateway.StudySpec
}

// serveSchedule is the open-loop load of one run, a pure function of the
// seed: at least serveMinStudies arrivals at serveRate over the window,
// each a new gateway-default study (4 nodes, 8 s) with a seed drawn from
// the benchmark seed, a repeat of an earlier spec, or a scenario study.
func serveSchedule(seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(serveRate * seconds)
	if n < serveMinStudies {
		n = serveMinStudies
	}
	out := make([]arrival, 0, n)
	var at time.Duration
	for k := 0; k < n; k++ {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		a := arrival{At: at, Tenant: fmt.Sprintf("tenant-%d", rng.Intn(serveTenants))}
		switch {
		case k > 0 && rng.Intn(serveRepeatEvery) == 0:
			a.Spec = out[rng.Intn(k)].Spec
		default:
			a.Spec = gateway.StudySpec{Seed: rng.Int63n(1<<40) + 1}
			if rng.Intn(serveScenarioEvery) == 0 {
				a.Spec.Scenario = serveScenarios[rng.Intn(len(serveScenarios))]
			}
		}
		out = append(out, a)
	}
	return out
}

// served is the client-side record of one submission.
type served struct {
	Due, Sent, Acked, Done time.Duration // since the load started
	Reply                  gateway.SubmitReply
	Status                 gateway.StatusReply
	Err                    error
}

// serveConfig is the gateway under test: every study on an in-process
// fabric of 3 replicas and 2 workers, with MaxConcurrent x Workers = nproc.
func serveConfig(procs int, onProgress func(study uint64, done, total int)) gateway.Config {
	maxc := procs / serveWorker
	if maxc < 1 {
		maxc = 1
	}
	return gateway.Config{
		MaxConcurrent: maxc,
		Fabric:        &gateway.FabricConfig{Replicas: 3, Workers: serveWorker},
		OnProgress:    onProgress,
	}
}

// startServe starts the harness and dials nproc protocol clients.
func startServe(procs int, onProgress func(uint64, int, int)) (*gatewaytest.Harness, []*gateway.Client, error) {
	h := gatewaytest.Start(serveConfig(procs, onProgress))
	cls := make([]*gateway.Client, procs)
	for i := range cls {
		cl, err := h.Client()
		if err != nil {
			h.Close()
			return nil, nil, err
		}
		cls[i] = cl
	}
	return h, cls, nil
}

// progressLog keeps the OnProgress timestamps of every study.
type progressLog struct {
	mu sync.Mutex
	t0 time.Time
	at map[uint64][]time.Duration
}

func (p *progressLog) record(study uint64, done, total int) {
	now := time.Since(p.t0)
	p.mu.Lock()
	p.at[study] = append(p.at[study], now)
	p.mu.Unlock()
}

// drive plays the schedule against the gateway: one goroutine submits on
// schedule over the first client, another polls Status over the last one
// until every study has finished. Times are measured from each study's due
// time, so a generator that falls behind adds its delay to the studies it
// delays.
func drive(r *Run, cls []*gateway.Client, sched []arrival, t0 time.Time) []served {
	out := make([]served, len(sched))
	pending := make(chan int, len(sched)) // one slot per submission: the sender never blocks
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(pending)
		cl := cls[0]
		for k, a := range sched {
			if d := time.Until(t0.Add(a.At)); d > 0 {
				time.Sleep(d)
			}
			s := &out[k]
			s.Due = a.At
			s.Sent = time.Since(t0)
			id := r.Trace.Begin("gateway.Submit", a.Tenant, 0)
			s.Reply, s.Err = cl.Submit(a.Tenant, a.Spec)
			r.Trace.End(id)
			s.Acked = time.Since(t0)
			if s.Err == nil {
				pending <- k
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := cls[len(cls)-1]
		var open []int
		deadline := time.Now().Add(serveDrain)
		more := true
		for more || len(open) > 0 {
			for drained := false; more && !drained; {
				select {
				case k, ok := <-pending:
					if !ok {
						more = false
					} else {
						open = append(open, k)
					}
				default:
					drained = true
				}
			}
			keep := open[:0]
			for _, k := range open {
				s := &out[k]
				id := r.Trace.Begin("gateway.Status", sched[k].Tenant, 0)
				st, err := cl.Status(s.Reply.StudyID)
				r.Trace.End(id)
				switch {
				case err != nil:
					s.Err, s.Done = err, time.Since(t0)
				case st.State == gateway.StateName(gateway.StateQueued) || st.State == gateway.StateName(gateway.StateRunning):
					if time.Now().After(deadline) {
						s.Err, s.Done = fmt.Errorf("study %d still %s after the drain deadline", st.StudyID, st.State), time.Since(t0)
						continue
					}
					keep = append(keep, k)
					continue
				default:
					s.Status, s.Done = st, time.Since(t0)
				}
			}
			open = keep
			if more || len(open) > 0 {
				time.Sleep(servePoll)
			}
		}
	}()
	wg.Wait()
	return out
}

// oracles computes the direct-run fingerprints of every distinct spec,
// nproc at a time: gatewaytest.RunOracle for plain specs, and the same run
// with the scenario bound to the study fleet (as the gateway binds it) for
// scenario specs, which RunOracle does not bind.
func oracles(ctx context.Context, procs int, sched []arrival) (map[gateway.StudySpec]gatewaytest.Oracle, error) {
	out := make(map[gateway.StudySpec]gatewaytest.Oracle)
	var specs []gateway.StudySpec
	for _, a := range sched {
		if _, ok := out[a.Spec]; !ok {
			out[a.Spec] = gatewaytest.Oracle{}
			specs = append(specs, a.Spec)
		}
	}
	var mu sync.Mutex
	var firstErr error
	next := make(chan gateway.StudySpec, len(specs))
	for _, s := range specs {
		next <- s
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range next {
				o, err := oracle(ctx, spec)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[spec] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func oracle(ctx context.Context, spec gateway.StudySpec) (gatewaytest.Oracle, error) {
	if spec.Scenario == "" {
		return gatewaytest.RunOracle(ctx, spec)
	}
	fleet, err := workload.Generate(spec.FleetConfig())
	if err != nil {
		return gatewaytest.Oracle{}, err
	}
	wl, err := bindScenario(spec, fleet)
	if err != nil {
		return gatewaytest.Oracle{}, err
	}
	stream := sketch.NewSet(sketch.Config{})
	opts := spec.RunOptions()
	opts.Stream = stream
	opts.Scenario = wl
	ds, err := ebs.New(fleet).Run(ctx, opts)
	if err != nil {
		return gatewaytest.Oracle{}, err
	}
	return gatewaytest.Oracle{DatasetFP: invariant.Fingerprint(ds), SketchFP: stream.Fingerprint()}, nil
}

func bindScenario(spec gateway.StudySpec, fleet *workload.Fleet) (scenario.Workload, error) {
	built, err := scenario.Build(spec.Scenario)
	if err != nil {
		return nil, err
	}
	return built.Bind(fleet)
}

// checkServed holds every submission to its oracle: a rejected, failed,
// canceled or unfinished study is a failure, and so is a completed one
// whose dataset or sketch fingerprint differs from the direct run's.
func checkServed(r *Run, sched []arrival, out []served, want map[gateway.StudySpec]gatewaytest.Oracle) {
	done := gateway.StateName(gateway.StateDone)
	for k, s := range out {
		what := fmt.Sprintf("study %d (%s seed %d %s)", k, sched[k].Tenant, sched[k].Spec.Seed, sched[k].Spec.Scenario)
		switch {
		case s.Err != nil:
			r.Checks.Fail(what, s.Err)
		case s.Status.State != done:
			r.Checks.Fail(what, fmt.Errorf("ended %s: %s", s.Status.State, s.Status.Error))
		default:
			o := want[sched[k].Spec]
			r.Checks.Check(what, s.Status.DatasetFP+"/"+s.Status.SketchFP, o.DatasetFP+"/"+o.SketchFP)
		}
	}
}

// latencies returns each study's time from due to done, in ms.
func latencies(out []served) []float64 {
	ms := make([]float64, 0, len(out))
	for _, s := range out {
		ms = append(ms, msec(s.Done-s.Due))
	}
	return ms
}

// servedIOs sums the IOs of the studies the gateway executed (a deduped
// submission simulates nothing), read from each study's final sketch
// through the Snapshot call after the load has finished.
func servedIOs(cl *gateway.Client, out []served) (float64, error) {
	total := 0.0
	for _, s := range out {
		if s.Err != nil || s.Reply.Deduped {
			continue
		}
		snap, err := cl.Snapshot(s.Reply.StudyID)
		if err != nil {
			return 0, err
		}
		set, err := sketch.DecodeSet(snap.Sketch)
		if err != nil {
			return 0, err
		}
		total += float64(set.Totals().IOs)
	}
	return total, nil
}

func runServe(ctx context.Context, r *Run) error {
	sched := serveSchedule(r.Seed, r.Seconds)
	if r.Trace != nil {
		return traceServe(ctx, r, sched)
	}
	setup, err := setupTimes(setupRepeats, func() error {
		h, _, err := startServe(r.Procs, nil)
		if err == nil {
			h.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	h, cls, err := startServe(r.Procs, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	out := drive(r, cls, sched, t0)
	span := time.Since(t0)
	heap := retainedHeapMiB()
	ios, err := servedIOs(cls[0], out)
	h.Close()
	if err != nil {
		return err
	}

	want, err := oracles(ctx, r.Procs, sched)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	checkServed(r, sched, out, want)
	reportGenerator(out)
	r.Metrics["setup_s"] = setup
	r.Metrics["ios_per_s"] = ios / secs(span)
	r.Metrics["study_p50_ms"] = Median(latencies(out))
	r.Metrics["heap_retained_mib"] = heap
	if p95, err := Tail(latencies(out), 95); err == nil {
		fmt.Printf("studies %d over %.2fs, p95 %.2f ms\n", len(out), secs(span), p95)
	}
	return nil
}

// genLateMax is how far behind its schedule the load generator sent.
func genLateMax(out []served) float64 {
	late := make([]float64, len(out))
	for i, s := range out {
		late[i] = msec(s.Sent - s.Due)
	}
	return Max(late)
}

// reportGenerator prints the generator's lateness with every serve result,
// and says so when the load fell behind its schedule: the arrival rate was
// then not the one the result claims.
func reportGenerator(out []served) {
	late := genLateMax(out)
	fmt.Printf("generator late max %.3f ms\n", late)
	if late > 1000/serveRate {
		fmt.Printf("generator fell behind its schedule by %.1f ms (more than one mean inter-arrival)\n", late)
	}
}

// traceServe plays the schedule twice, untraced for the overhead base and
// then traced with spans around each Submit and Status call, and derives
// the gateway and fabric layer metrics from the gateway's admission and
// grant logs and the fabric's progress timestamps.
func traceServe(ctx context.Context, r *Run, sched []arrival) error {
	tr := r.Trace
	r.Trace = nil
	h, cls, err := startServe(r.Procs, nil)
	if err != nil {
		return err
	}
	base := drive(r, cls, sched, time.Now())
	h.Close()
	r.Trace = tr

	prog := &progressLog{at: make(map[uint64][]time.Duration)}
	h, cls, err = startServe(r.Procs, prog.record)
	if err != nil {
		return err
	}
	prog.t0 = time.Now()
	out := drive(r, cls, sched, prog.t0)
	adms, grants := h.GW.Admissions(), h.GW.Grants()
	ledger := h.GW.Ledger()
	h.Close()

	want, err := oracles(ctx, r.Procs, sched)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	checkServed(r, sched, out, want)
	checkServed(r, sched, base, want)
	reportGenerator(out)

	lat := latencies(out)
	r.Metrics["bench.trace_overhead"] = Median(lat) / Median(latencies(base))
	if p95, err := Tail(lat, 95); err == nil {
		r.Metrics["gateway.study_p95_ms"] = p95
	} else {
		r.Checks.Fail("study p95", err)
	}
	var submit []float64
	for _, s := range out {
		submit = append(submit, msec(s.Acked-s.Sent))
	}
	r.Metrics["gateway.submit_ms_p50"] = Median(submit)
	r.Metrics["gateway.studies"] = float64(len(out))
	r.Metrics["gateway.deduped"] = float64(ledger.Deduped)
	r.Metrics["gateway.rejected"] = float64(ledger.Rejected)
	r.Metrics["gateway.failed"] = float64(ledger.Failed)
	r.Metrics["gateway.gen_late_ms_max"] = genLateMax(out)

	// Per executed study: admitted (queued) -> granted -> progress -> done.
	queuedAt := make(map[uint64]float64)
	for _, a := range adms {
		if a.Decision == "queued" {
			queuedAt[a.Study] = a.AtSec * 1e3
		}
	}
	doneAt := make(map[uint64]float64)
	for _, s := range out {
		if s.Err == nil && !s.Reply.Deduped {
			doneAt[s.Reply.StudyID] = msec(s.Done)
		}
	}
	var queue, run, first, gaps, tail []float64
	for _, g := range grants {
		grant := g.AtSec * 1e3
		queue = append(queue, grant-queuedAt[g.Study])
		run = append(run, doneAt[g.Study]-grant)
		p := prog.at[g.Study]
		if len(p) == 0 {
			continue
		}
		first = append(first, msec(p[0])-grant)
		for i := 1; i < len(p); i++ {
			gaps = append(gaps, msec(p[i]-p[i-1]))
		}
		tail = append(tail, doneAt[g.Study]-msec(p[len(p)-1]))
	}
	for name, xs := range map[string][]float64{"gateway.queue_ms_p95": queue, "gateway.run_ms_p95": run} {
		v, err := Tail(xs, 95)
		if err != nil {
			r.Checks.Fail(name, err)
		}
		r.Metrics[name] = v
	}
	r.Metrics["gateway.run_ms_p50"] = Median(run)
	r.Metrics["fabric.first_shard_ms_p50"] = Median(first)
	r.Metrics["fabric.shard_gap_ms_p50"] = Median(gaps)
	r.Metrics["fabric.tail_ms_p50"] = Median(tail)

	// Every fabric study rebuilds its fleet; time Generate on each executed
	// spec's fleet config, and Build+Bind for each scenario spec.
	var gen time.Duration
	var bind []float64
	for k, s := range out {
		if s.Err != nil || s.Reply.Deduped {
			continue
		}
		spec := sched[k].Spec
		id := r.Trace.Begin("workload.Generate", "fleets", 0)
		t := time.Now()
		fleet, err := workload.Generate(spec.FleetConfig())
		gen += time.Since(t)
		r.Trace.End(id)
		if err != nil {
			return err
		}
		if spec.Scenario != "" {
			id := r.Trace.Begin("scenario.Bind", "fleets", 0)
			t := time.Now()
			_, err := bindScenario(spec, fleet)
			bind = append(bind, msec(time.Since(t)))
			r.Trace.End(id)
			if err != nil {
				return err
			}
		}
	}
	r.Metrics["workload.generate_s"] = secs(gen)
	r.Metrics["scenario.bind_ms"] = Median(bind)
	return nil
}
