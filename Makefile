# Developer entry points. `make ci` is the gate: vet, the full test suite
# under the race detector on a short-window fleet (the tests build their own
# small fleets, so the race run stays fast — and it includes the netblock
# client-vs-server stress test with wire faults enabled), the golden-fixture
# drift check, a short randomized run of every fuzz target, coverage over the
# fault-injection packages, and a seeded chaos smoke run with the invariant
# checker.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race vet bench bench-gate golden golden-diff fuzz-smoke cover chaos-smoke sketch-accuracy-smoke dist-smoke dist-ha-smoke consensus-race gateway-smoke control-smoke scenario-smoke bench-compile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run. -short trims the slowest property tests where they
# opt in; every fleet used by the tests is already small. The invariant
# suites (runtime checker, metamorphic relations) ride along here.
race:
	$(GO) test -race -short ./...

# Engine scaling benchmark (the same simulation at 1, 2, and 4 workers),
# the streaming sketch ingest benchmark, whose flat B/op across an 8x
# record growth is the O(1)-memory evidence, and the fabric dispatch
# benchmark (coordinator + two loopback workers through the full
# join/dispatch/upload/merge cycle). The JSON stream is captured to
# BENCH_baseline.json for cross-run comparison (benchstat-compatible via
# `go tool test2json` consumers).
bench:
	$(GO) test -run xxx -bench 'BenchmarkSimWorkers|BenchmarkSketchIngest|BenchmarkReplayIngest|BenchmarkFabricDispatch|BenchmarkControlOverhead' -benchmem -json . | tee BENCH_baseline.json

# Performance regression gate: reruns the gated benchmarks and fails when
# any loses more than 10% ios-per-sec or grows allocs/op by more than 10%
# against BENCH_baseline.json. After an intentional performance change,
# promote the fresh numbers with `make bench-gate UPDATE_BASELINE=1` and
# commit the updated baseline.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkSimWorkers|BenchmarkSketchIngest|BenchmarkReplayIngest|BenchmarkFabricDispatch|BenchmarkControlOverhead' -benchmem -json . > BENCH_current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_current.json $(if $(UPDATE_BASELINE),-update-baseline)
	@rm -f BENCH_current.json

# golden-diff fails when any figure/ablation statistic or the engine
# fingerprint drifts from the fixtures in internal/core/testdata/golden.
# After an intentional change, regenerate with `make golden` and commit the
# diff alongside the change that caused it.
golden-diff:
	$(GO) test ./internal/core -run 'TestGolden' -count=1
	$(GO) test ./internal/scenario -run 'TestGolden' -count=1

golden:
	$(GO) test ./internal/core -run 'TestGolden' -count=1 -update
	$(GO) test ./internal/scenario -run 'TestGolden' -count=1 -update

# Short randomized runs of the committed fuzz targets (seeds under each
# package's testdata/fuzz). `go test -fuzz` takes one target per
# invocation, so each gets its own.
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz FuzzReadMetricCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz FuzzReadTraceJSONL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/predict -fuzz FuzzEvaluatePredictors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzSpaceSavingAddMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzLogQuantileMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzSetCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/consensus -fuzz FuzzMessageCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gateway -fuzz FuzzGatewayCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -fuzz FuzzReplayIngest -fuzztime $(FUZZTIME)

# Coverage over the fault-injection surface: the chaos layer itself plus
# every package it reaches into (RPC substrate, engine, balancer, throttle,
# invariants).
cover:
	$(GO) test -cover ./internal/chaos ./internal/netblock ./internal/ebs \
		./internal/balancer ./internal/throttle ./internal/invariant

# Short seeded chaos run with the invariant checker on: a recoverable fault
# schedule must pass every conservation law end to end.
chaos-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 20 -nodes 4 -max-vds 24 -chaos -check

# Exact-vs-streamed accuracy gate: one unthinned run scored both ways; every
# streamed metric must sit inside its documented error bound (top-K overlap
# >= 0.9, quantile relative error <= 2%).
sketch-accuracy-smoke:
	$(GO) test ./internal/ebs -run 'TestSketchAccuracySmoke' -count=1 -v

# Distributed-fabric gate: a coordinator plus two in-process loopback
# workers run the fleet in shards over the real netblock wire path, then
# the binary re-runs the same study single-process and fails unless the
# merged dataset and sketch fingerprints are byte-identical.
dist-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 15 -nodes 4 -max-vds 24 -dist 2 -shards 5 -check -stream

# High-availability variant: the coordinator is a 3-replica consensus group
# and the chaos plan kills the acting leader mid-run. A successor must be
# elected, the workers must fail over through redirects, and the merged
# dataset must STILL be byte-identical to the single-process run.
dist-ha-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 15 -nodes 4 -max-vds 24 -dist 2 -shards 5 -replicas 3 -leader-kill 1 -check

# Focused race-detector pass over the consensus core and the replicated
# fabric (leader election, log replication, kill-driven failover) without
# -short, so the full leader-kill golden scenario runs under the detector.
consensus-race:
	$(GO) test -race -count=1 ./internal/consensus ./internal/fabric

# Serving-plane gate: the ebsgate binary serves a gateway on loopback TCP,
# a protocol client submits one study through the full wire path and streams
# sketch snapshots while it runs, and the binary fails unless the served
# dataset and sketch fingerprints are byte-identical to a direct
# single-process run of the same spec.
gateway-smoke:
	$(GO) run ./cmd/ebsgate -selftest -seed 7 -dur 4 -nodes 2 -users 4 -max-vds 12

# Mitigation control-plane gate: the policy bake-off golden fixture (the
# predictive policy must beat reactive on imbalance under the pinned chaos
# plan, and noop must answer byte-identically to the uncontrolled run), the
# metamorphic worker-count invariance of the decision log, and one seeded
# predict->act CLI run under chaos with the invariant suite on. The engine
# tests hold the traffic-only observe pass to Run's Observe output, the
# Observe shape check, and RunControlled's hooks to the actuated pass.
control-smoke:
	$(GO) test ./internal/control/... -count=1
	$(GO) test ./internal/ebs -run 'TestObserveTrafficMatchesRun|TestRunRejectsMismatchedObservation|TestRunControlledHooks' -count=1
	$(GO) run ./cmd/ebssim -seed 7 -dur 24 -nodes 4 -max-vds 24 -control predictive -chaos -storms 4 -check

# Scenario-library gate: the scenario package suite (golden fixtures,
# worker-count determinism oracle, native replay round-trip, replay fuzz
# seeds), then the full scenario matrix end to end through the CLI with the
# invariant checker on — bufferbloat plain, batchburst under a chaos plan,
# elastic under the predictive control policy, and both committed foreign
# traces (MSR and tianchi schemas) through -replay.
scenario-smoke:
	$(GO) test ./internal/scenario -count=1
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario bufferbloat,period=8,duty=0.5 -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario batchburst,wave=6,width=2 -chaos -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario elastic,hi=2,step=3 -control predictive -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -replay internal/scenario/testdata/msr_sample.csv -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -replay internal/scenario/testdata/tianchi_sample.csv -check -stream

# The benchmark driver (ebsbench/, its own module over this one) calls
# internal APIs directly: vet and test it here, so an internal change that
# breaks the benchmark fails CI instead of the benchmark pipeline.
bench-compile:
	cd ebsbench && $(GO) vet ./... && $(GO) test ./...

ci: vet race golden-diff fuzz-smoke cover chaos-smoke sketch-accuracy-smoke dist-smoke dist-ha-smoke consensus-race gateway-smoke control-smoke scenario-smoke bench-compile bench-gate
