GO ?= go

.PHONY: all build vet lint test race chaos fuzz cover bench bench-smoke profile-cluster alloc-check serve-smoke scale-smoke loadgen-smoke loc clean

all: vet lint test

build:
	$(GO) build ./...

# vet also fails on unformatted files (testdata holds deliberately
# broken sources for the lint loader) and on any godoc Deprecated
# marker: a replacement is landed in place of what it replaces, never
# beside it. The scheduler's dispatch files may not name the energy
# policies' vocabulary: policy reaches dispatch only through the
# schedPolicy value's decisions (internal/slurm/energy.go). bench/ is a
# module of its own that neither `go vet ./...` nor tier-1 compiles, so
# it is vetted here too: deleting an exported identifier the benchmark
# imports fails `make vet`, not just `make bench-smoke`.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v testdata)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	@deprecated=$$(grep -n 'Deprecated[:]' $$(git ls-files '*.go' | grep -v testdata)); \
	if [ -n "$$deprecated" ]; then echo "Deprecated markers (migrate the callers and delete instead):"; echo "$$deprecated"; exit 1; fi
	@leaked=$$(grep -nE 'reasonPowerCap|reasonEnergyHold|capSlack|coschedPenalty' internal/slurm/controller.go internal/slurm/cluster.go); \
	if [ -n "$$leaked" ]; then echo "policy vocabulary outside internal/slurm/energy.go (ask the policy value instead):"; echo "$$leaked"; exit 1; fi

# lint runs the project's own analyzer suite (internal/lint via
# cmd/ecolint), six analyzers over the whole module: determinism (wall
# clock, global RNG, map-order and select), context flow, hot-path
# I/O, lock scope, metric naming and the simclock event-pool contract.
# It has no flags: a suppression without a reason and a suppression
# that no longer absorbs a finding are both findings, and the
# suppression-debt ledger is always printed. TestModuleClean runs the
# same check, so `make test` and `make lint` agree.
lint: build
	$(GO) build -o bin/ecolint ./cmd/ecolint
	./bin/ecolint .

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite under the race detector; the CI
# chaos job repeats it for three fixed seeds (CHAOS_SEED drives the
# random-schedule property test).
CHAOS_SEED ?= 1
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'Chaos|Fault|Fuzz|PolicyInvariants|NeverStarves' ./...

# fuzz gives each fuzzer a short budget beyond the committed corpus
# (which plain `go test` always replays).
fuzz:
	$(GO) test -fuzz FuzzTornTail -fuzztime 30s -run FuzzTornTail ./internal/filedb/
	$(GO) test -fuzz FuzzReplay -fuzztime 30s -run FuzzReplay ./internal/filedb/
	$(GO) test -fuzz FuzzPolicySpec -fuzztime 30s -run FuzzPolicySpec ./internal/workload/

# cover enforces a per-package statement-coverage floor on the policy
# and workload packages (the cluster-policy test harness keeps them
# high; the floor stops silent erosion). FAIL lines from any package
# still fail the target even though awk consumes the pipe status.
COVER_FLOOR ?= 80
cover:
	$(GO) test -cover ./... | awk -v floor=$(COVER_FLOOR) ' \
		{ print } \
		/^FAIL/ { bad = 1 } \
		$$1 == "ok" && ($$2 == "ecosched/internal/slurm" || $$2 == "ecosched/internal/workload") { \
			pct = $$5; sub(/%/, "", pct); seen++; \
			if (pct + 0 < floor) { printf "cover: %s at %s%% is under the %d%% floor\n", $$2, pct, floor; bad = 1 } \
		} \
		END { if (seen < 2) { print "cover: gated packages missing from output"; exit 1 }; exit bad }'

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# scale-smoke exercises the cluster-scale surface: the committed
# 1,024-node 100k-submission spec through `chronus simulate`, the
# power-capped policy spec with its fitness row, then the
# replay-fidelity suites, the lane-count equivalence and every exit of
# the router / lane-worker pipeline under the race detector on the
# reduced specs (the 1M acceptance regression is build-gated out of
# -race runs and covered by plain `make test`).
scale-smoke: build
	$(GO) run ./cmd/chronus simulate -spec specs/scale-smoke.json
	$(GO) run ./cmd/chronus simulate -spec specs/powercap-smoke.json
	$(GO) test -race -run 'ClusterReplayFidelity|ClusterPolicyReplayFidelity|ClusterLanesEquivalence|ClusterPipelineExits|ReplayTornTail|DifferentSeedDiverges|CommittedSpecsParse' -v .

# bench-smoke exercises the repository's end-to-end benchmark (the
# bench/ module, which root `go test ./...` does not reach): its own
# tests, then all four workloads at smoke sizes with their checks.
# bench/ is the one perf trajectory: `bash bench/run.sh -repeat N`
# records median + quartiles, `-compare a b` exits 1 past a bound.
bench-smoke:
	$(GO) test -C bench ./...
	bash bench/run.sh -quick

# profile-cluster captures CPU and heap profiles of the cluster-scale
# throughput benchmark into bin/, then prints the CPU top — the
# starting point for any simulator-core perf work (inspect further
# with `go tool pprof bin/ecosched.test bin/cluster-{cpu,mem}.out`).
profile-cluster:
	$(GO) test -run XXX -bench ClusterThroughput -benchtime=10x -benchmem \
		-o bin/ecosched.test -cpuprofile bin/cluster-cpu.out -memprofile bin/cluster-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/cluster-cpu.out

# alloc-check guards the allocation guarantees of the hot paths. The
# simulator's must report 0 allocs/op, or a heap allocation has crept
# into a per-event path: the telemetry emit path (sharded counter,
# gauge, bucketed histogram), the simclock schedule+pop cycle on the
# Action fast path, the slurm submit→complete cycle (pooled jobs,
# chunked arena, aggregate accounting), a scheduling pass that starts
# nothing on a saturated cluster under all three energy policies (hold,
# place and their maintained state) and PredictService.Predict on a
# cache hit (untraced; the $$ keeps the traced variant, which allocates
# spans by design, out). The paper's budgeted path — a cache-hit
# job_submit_eco with settings.json on disk — has a fixed ceiling
# instead: 7 allocs/op as measured (go1.24), all of them os.ReadFile
# of the settings file and the copy of its model list.
alloc-check:
	$(GO) test -run XXX -bench 'ShardedCounterInc|BucketedHistogramObserve|GaugeSet|SimSchedule$$|SubmitSteadyState|PolicyPassSaturated|EcoSubmitCacheHit|PredictCacheHit$$' -benchtime=1000x -benchmem . ./internal/metrics ./internal/simclock ./internal/slurm ./internal/ecoplugin | \
	awk '{ print } /allocs\/op$$/ { seen++; limit = ($$1 ~ /^BenchmarkEcoSubmitCacheHit/) ? 7 : 0; if ($$(NF-1) + 0 > limit) { bad = 1; print "alloc-check: " $$1 " allocates " $$(NF-1) " times per op, ceiling " limit } } END { if (seen < 8) { print "alloc-check: expected 8 benchmarks, saw " seen+0; exit 1 }; exit bad }'

# serve-smoke boots `chronus serve` against a fresh data directory and
# fails unless /metrics and /healthz answer 200 with the expected
# content types.
serve-smoke:
	./scripts/serve-smoke.sh

# loadgen-smoke drives the sustained-load harness in both modes and
# fails if the submit-latency SLO is violated.
loadgen-smoke:
	./scripts/loadgen-smoke.sh

# loc prints the non-test Go line count, the number ROADMAP.md and
# CHANGES.md quote (bench/ is a module of its own; testdata holds lint
# fixtures).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | grep -v /testdata/ | xargs cat | wc -l

clean:
	$(GO) clean -testcache
