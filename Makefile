# Build/test/benchmark entry points. `make ci` is the gate every change
# must pass: vet, the package-doc check, build, the full test suite under
# the race detector, and a one-shot benchmark smoke pass proving the
# harness still runs.

GO ?= go

.PHONY: ci vet no-deprecated doccheck docs build test race race-fault race-serve race-store race-batch race-shard race-campaign race-tenant race-fleet loadgen-smoke bench-smoke bench bench-solver bench-sparse bench-sparse-smoke

ci: vet no-deprecated doccheck docs build race race-fault race-serve race-store race-batch race-shard race-campaign race-tenant race-fleet loadgen-smoke bench-smoke

vet:
	$(GO) vet ./...

# Internal packages, commands and examples have no outside importers, so
# a deprecated wrapper there is dead code: fail on any `Deprecated:`
# marker instead of keeping it for source compatibility.
no-deprecated:
	@if grep -rn --include='*.go' 'Deprecated:' internal cmd examples; then \
		echo 'no-deprecated: delete the wrapper and migrate its callers'; exit 1; fi

# Every package must open with a doc comment mapping it to its paper
# section/equation; see cmd/doccheck.
doccheck:
	$(GO) run ./cmd/doccheck .

# The documentation gates: exported campaign/report types must carry doc
# comments, docs/REPORT_SCHEMA.md must match the report structs' json
# tags in both directions, docs/API.md must match the serve package's
# mux routes, error-code taxonomy and error envelope in both directions,
# and every runnable godoc example must still build and pass.
docs:
	$(GO) run ./cmd/doccheck -exported internal/campaign,internal/report,internal/report/signoff -schema docs/REPORT_SCHEMA.md=internal/report/signoff -api docs/API.md=internal/serve .
	$(GO) test -run 'Example' ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-isolation and cancellation paths under the race detector with a
# higher iteration count: panicking trials, mid-run cancellation and
# partial-result accounting in variation, core and aging.
race-fault:
	$(GO) test -race -count=2 -run 'Panic|Cancel|Fault|Deadline|Telemetry' ./internal/variation/ ./internal/core/ ./internal/aging/

# The job-server lifecycle under the race detector: submit/poll/stream,
# exact queue backpressure, mid-job cancellation with partial-result
# accounting, and the graceful drain.
race-serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/jobspec/

# Durability under the race detector: journal replay and compaction,
# crash-recovery classification (done/queued/interrupted), the spec-
# keyed result cache across restarts, and the retention policy that
# bounds memory and disk.
race-store:
	$(GO) test -race -count=2 -run 'Store|Crash|Recover|Cache|Retention|Evict|RetryAfter|Interrupted|Seed|Hash' ./internal/store/ ./internal/serve/ ./internal/jobspec/

# The shared trial engine and die pool under the race detector: die
# reuse in core and jobspec, the bit-identity pins that prove reuse never
# changes a result, the golden pins of the engine's output, and the
# zero-allocation pins of a die's ager step and per-trial re-seed.
race-batch:
	$(GO) test -race -count=2 -run 'Batch|Quantile|Sparse|Golden|Ager.*Allocs' ./internal/core/ ./internal/jobspec/ ./internal/variation/ ./internal/circuit/ ./internal/aging/

# The sharded-campaign and checkpoint/resume paths under the race
# detector: mergeable moments and sketches, shard-seed independence,
# trial-range scatter-gather (local and peer-dispatched), checkpoint
# journaling with compaction/eviction guarantees, and the kill-and-
# resume acceptance suite.
race-shard:
	$(GO) test -race -count=1 -run 'Moments|Sketch|SplitMix|Correl|Chunk|Campaign|Shard|Resume|Checkpoint|QuantileCache' ./internal/mathx/ ./internal/variation/ ./internal/jobspec/ ./internal/store/ ./internal/serve/

# The composite-campaign paths under the race detector: the generic DAG
# engine's concurrency, sub-job failure propagating a structured partial
# report, mid-campaign kill + restart resuming from journaled sub-job
# checkpoints, and cache-hit sub-jobs surfacing in report provenance.
race-campaign:
	$(GO) test -race -count=2 ./internal/campaign/
	$(GO) test -race -count=1 -run 'Campaign|Signoff|Centering|Corner|DAG' ./internal/jobspec/ ./internal/serve/ ./internal/variation/ ./internal/report/...

# The multi-tenant API paths under the race detector: key auth, tenant
# quota and trial-rate 429s with tenant-derived Retry-After, weighted
# fair-share convergence, batch dedup/cache admission atomicity, list
# pagination, readiness, journaled fair-share accounting across restart,
# priority classes and the /events fan-out (1k subscribers, slow-reader
# disconnect, bounded batching).
race-tenant:
	$(GO) test -race -count=1 -run 'TestTenant|TestFairShare|TestTrialRate|TestBatch|TestList|TestReadyz|TestRestartFairShare|TestInteractive|TestEvent' ./internal/serve/

# The fleet-federation paths under the race detector: tenant-
# authenticated and timed-out shard dispatch (auth vs unreachable
# fallback accounting, hung-peer goroutine hygiene), cross-node job
# forwarding with the hop guard, probe-driven quarantine and recovery,
# fleet-wide max_running, and the two-node kill-and-failover acceptance
# run proving an adopted campaign resumes from the dead node's journal
# bit-identical to an uninterrupted one.
race-fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestShardDispatch|TestShardedCampaignPeerDispatch|TestShardPeerFallbackLocal' ./internal/serve/

# Harness-rot check for cmd/loadgen: one short open-loop stage against
# an in-process server, asserting the BENCH_9 driver still runs end to
# end (the full run behind BENCH_9.json uses the defaults).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -self -stages 2 -stage-duration 3s -trials 5000 -out /dev/null

# One iteration of every benchmark: catches harness rot without the cost
# of a full measurement run.
bench-smoke: bench-sparse-smoke
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Full measurement run of every benchmark with allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The solver hot-path microbenchmarks behind BENCH_1.json / the README
# "Performance" section.
bench-solver:
	$(GO) test -run '^$$' -bench 'BenchmarkOperatingPoint$$|BenchmarkOperatingPointCold$$|BenchmarkTransientStep$$' -benchmem -benchtime=2s .
	$(GO) test -run '^$$' -bench 'FactorSolve' -benchmem ./internal/linalg/

# The sparse-backend crossover and batched-campaign benchmarks behind
# BENCH_6.json / the README crossover table.
bench-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkLadderOP|BenchmarkMCCampaign|BenchmarkMCService' -benchtime=2s .
	$(GO) test -run '^$$' -bench 'BenchmarkEval' -benchmem -benchtime=2s ./internal/device/

# Harness-rot check for the same set: one iteration each.
bench-sparse-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLadderOP|BenchmarkMCCampaign|BenchmarkMCService' -benchtime=1x .
