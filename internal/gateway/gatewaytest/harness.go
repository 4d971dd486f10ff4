// Package gatewaytest is the end-to-end harness for the serving plane: it
// stands up a live gateway behind a netblock server on an in-process
// loopback listener, hands out protocol clients, runs deterministic
// per-tenant submission scripts, and computes single-process oracle
// fingerprints for any study spec. It deliberately does not import package
// testing (the httptest discipline), so CLIs and benchmarks can drive the
// same harness the test suite does.
package gatewaytest

import (
	"context"
	"fmt"
	"sync"

	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/gateway"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// Harness is one live gateway behind a loopback netblock server.
type Harness struct {
	GW *gateway.Gateway

	lb  *fabric.Loopback
	srv *netblock.Server

	mu      sync.Mutex
	clients []*gateway.Client
}

// Start builds a gateway from cfg and serves it.
func Start(cfg gateway.Config) *Harness {
	h := &Harness{
		GW: gateway.New(cfg),
		lb: fabric.NewLoopback(),
	}
	h.srv = netblock.NewHandlerServer(h.GW)
	go h.srv.Serve(h.lb) //nolint:errcheck — lifecycle ends with Close
	return h
}

// Client dials the gateway over the loopback and returns a protocol client.
// The harness closes it at teardown.
func (h *Harness) Client() (*gateway.Client, error) {
	conn, err := h.lb.Dial()
	if err != nil {
		return nil, err
	}
	cl := gateway.NewClient(conn)
	h.mu.Lock()
	h.clients = append(h.clients, cl)
	h.mu.Unlock()
	return cl, nil
}

// Close tears the harness down: clients, server, listener, gateway.
func (h *Harness) Close() {
	h.mu.Lock()
	clients := h.clients
	h.clients = nil
	h.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	h.srv.Close()
	h.lb.Close()
	h.GW.Close()
}

// Submission is one script step's outcome.
type Submission struct {
	Tenant string
	Spec   gateway.StudySpec
	Reply  gateway.SubmitReply
	Err    error
}

// RunScripts submits each tenant's study list concurrently — one goroutine
// and one protocol client per tenant, steps within a tenant strictly in
// order — and returns every outcome grouped by tenant. Submission errors are
// recorded, not fatal: admission rejections are part of what scripts probe.
func (h *Harness) RunScripts(scripts map[string][]gateway.StudySpec) (map[string][]Submission, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[string][]Submission, len(scripts))
	var dialErr error
	for tenant, specs := range scripts {
		cl, err := h.Client()
		if err != nil {
			dialErr = err
			break
		}
		wg.Add(1)
		go func(tenant string, specs []gateway.StudySpec) {
			defer wg.Done()
			subs := make([]Submission, 0, len(specs))
			for _, spec := range specs {
				reply, err := cl.Submit(tenant, spec)
				subs = append(subs, Submission{Tenant: tenant, Spec: spec, Reply: reply, Err: err})
			}
			mu.Lock()
			out[tenant] = subs
			mu.Unlock()
		}(tenant, specs)
	}
	wg.Wait()
	return out, dialErr
}

// Oracle is the single-process reference answer for one study spec.
type Oracle struct {
	DatasetFP string
	SketchFP  string
}

// RunOracle executes spec directly through ebs.Run — same fleet mapping,
// same options, the spec's scenario bound to that fleet, fresh streaming
// sketch — and returns the fingerprints every gateway execution of that spec
// (local, fabric, fabric with leader kills) must reproduce byte for byte.
// Fabric-only spec fields (Shards, LeaderKills) do not influence the result:
// sharding is merge-invariant and leader kills are control-plane-only chaos.
func RunOracle(ctx context.Context, spec gateway.StudySpec) (Oracle, error) {
	fleet, err := workload.Generate(spec.FleetConfig())
	if err != nil {
		return Oracle{}, fmt.Errorf("gatewaytest: oracle fleet: %w", err)
	}
	stream := sketch.NewSet(sketch.Config{})
	opts := spec.RunOptions()
	opts.Stream = stream
	if opts.Scenario, err = spec.BindScenario(fleet); err != nil {
		return Oracle{}, fmt.Errorf("gatewaytest: oracle scenario: %w", err)
	}
	ds, err := ebs.New(fleet).Run(ctx, opts)
	if err != nil {
		return Oracle{}, fmt.Errorf("gatewaytest: oracle run: %w", err)
	}
	return Oracle{DatasetFP: invariant.Fingerprint(ds), SketchFP: stream.Fingerprint()}, nil
}
