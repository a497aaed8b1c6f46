GO ?= go

.PHONY: all build vet lint test race chaos fuzz cover bench bench-smoke profile-cluster profile-sweep profile-submit alloc-check serve-smoke scale-smoke loadgen-smoke mutants loc clean

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
	@leaked=$$(grep -nE 'reasonPowerCap|reasonEnergyHold|capSlack' internal/slurm/controller.go internal/slurm/cluster.go); \
	if [ -n "$$leaked" ]; then echo "policy vocabulary outside internal/slurm/energy.go (ask the policy value instead):"; echo "$$leaked"; exit 1; fi

# lint runs the project's own analyzer suite (internal/lint via
# cmd/ecolint), four analyzers over the whole module: determinism (wall
# clock, global RNG, map-order and select), context flow, lock scope
# and metric naming.
# It has no flags: a suppression without a reason and a suppression
# that no longer absorbs a finding are both findings, and the
# suppression-debt ledger is always printed. TestModuleClean runs the
# same check, so `make test` and `make lint` agree. Building ecolint
# compiles all it needs, so lint does not build the whole module first.
lint:
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
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'Chaos|Fault|Fuzz|NeverStarves' ./...

# fuzz gives each fuzzer a short budget beyond the committed corpus
# (which plain `go test` always replays): the filedb log, the policy
# spec, the generator's sampled fields under hostile distributions, the
# two slurm text parsers (slurm.conf, sbatch scripts), the controller's
# memo of the last sbatch parse against the parser, the calendar queue
# against its naive reference, the trace CSV encoder against the
# encoding/csv encoder it replaced, and cluster runs — FIFO and
# multifactor partitions, under a policy block or none — against the
# reference run.
# CI's fuzz job runs it.
fuzz:
	$(GO) test -fuzz FuzzTornTail -fuzztime 30s -run FuzzTornTail ./internal/filedb/
	$(GO) test -fuzz FuzzReplay -fuzztime 30s -run FuzzReplay ./internal/filedb/
	$(GO) test -fuzz FuzzPolicySpec -fuzztime 30s -run FuzzPolicySpec ./internal/workload/
	$(GO) test -fuzz FuzzGeneratorSamples -fuzztime 30s -run FuzzGeneratorSamples ./internal/workload/
	$(GO) test -fuzz FuzzParseConf -fuzztime 30s -run FuzzParseConf ./internal/slurm/
	$(GO) test -fuzz FuzzParseBatchScript -fuzztime 30s -run FuzzParseBatchScript ./internal/slurm/
	$(GO) test -fuzz FuzzSubmitScriptMemo -fuzztime 30s -run FuzzSubmitScriptMemo ./internal/slurm/
	$(GO) test -fuzz FuzzEventQueueDifferential -fuzztime 30s -run FuzzEventQueueDifferential ./internal/simclock/
	$(GO) test -fuzz FuzzAppendCSV -fuzztime 30s -run FuzzAppendCSV ./internal/telemetry/
	$(GO) test -fuzz FuzzClusterMatchesReference -fuzztime 30s -run FuzzClusterMatchesReference .

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
# power-capped policy spec with its fitness row, the 1M-submission
# spec recorded, replayed and compared byte for byte against a plain
# run timed with -timing, whose stage table goes to the log (`go test`
# covers a 100k slice of it), then the replay-fidelity
# suites, the lane-count equivalence and every exit of the router /
# lane-worker pipeline under the race detector on the reduced specs.
scale-smoke: build
	$(GO) run ./cmd/chronus simulate -spec specs/scale-smoke.json
	$(GO) run ./cmd/chronus simulate -spec specs/powercap-smoke.json
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/chronus ./cmd/chronus && \
	$$d/chronus simulate -spec specs/cluster-1k-1m.json -record $$d/run.jsonl > /dev/null && \
	$$d/chronus simulate -replay $$d/run.jsonl > $$d/replayed.txt && \
	$$d/chronus simulate -timing -spec specs/cluster-1k-1m.json > $$d/plain.txt && \
	cmp $$d/replayed.txt $$d/plain.txt && \
	echo "cluster-1k-1m: replayed and plain reports identical"
	$(GO) test -race -run 'ClusterReplayFidelity|ClusterPolicyReplayFidelity|ClusterLanesEquivalence|ClusterPipelineExits|ReplayTornTail|CommittedSpecsParse' -v .

# bench-smoke exercises the repository's end-to-end benchmark (the
# bench/ module, which root `go test ./...` does not reach): its own
# tests, then all four workloads at smoke sizes with their checks.
# bench/ is the one perf trajectory: `bash bench/run.sh -repeat N`
# records median + quartiles, `-compare a b` exits 1 past a bound.
bench-smoke:
	$(GO) test -C bench ./...
	bash bench/run.sh -quick

# profile-cluster captures CPU and heap profiles of the two cluster
# throughput benchmarks into bin/ and prints each CPU top and each
# allocated-bytes top (alloc_space: every byte allocated over the run,
# live or freed, by allocating line; the view that shows churn such as
# a reallocating queue): the no-policy 1,024-node run
# (bin/cluster-{cpu,mem}.out), the starting point for simulator-core
# perf work, and the capped policy run of bench/specs/cluster-policy.json,
# 200 seeds (bin/policy-{cpu,mem}.out), the starting point for
# policy-path perf work. Inspect further with
# `go tool pprof bin/ecosched.test bin/policy-cpu.out`.
profile-cluster:
	$(GO) test -run XXX -bench 'ClusterThroughput$$' -benchtime=10x -benchmem \
		-o bin/ecosched.test -cpuprofile bin/cluster-cpu.out -memprofile bin/cluster-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/cluster-cpu.out
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 bin/ecosched.test bin/cluster-mem.out
	$(GO) test -run XXX -bench 'ClusterPolicyThroughput$$' -benchtime=20x -benchmem \
		-o bin/ecosched.test -cpuprofile bin/policy-cpu.out -memprofile bin/policy-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/policy-cpu.out
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 bin/ecosched.test bin/policy-mem.out

# profile-sweep does the same for the paper's 138-configuration
# benchmark sweep on one worker (New + sweep + Close per op), the
# starting point for per-sample perf work in the sampler, the node
# model, the trace encoder and the sweep's commit path (inspect further
# with `go tool pprof bin/ecosched.test bin/sweep-{cpu,mem}.out`). Its
# deployments go under RAM-backed /dev/shm where it is writable, as the
# benchmark's do, so that disk latency is not what the profile shows.
profile-sweep:
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) $(GO) test -run XXX -bench 'ParallelSweep/parallelism-1$$' -benchtime=50x -benchmem \
		-o bin/ecosched.test -cpuprofile bin/sweep-cpu.out -memprofile bin/sweep-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/sweep-cpu.out

# profile-submit does the same for the paper's budgeted path: an
# opted-in sbatch plus WaitFor on a preloaded deployment
# (BenchmarkSubmitLatency), five runs of 500,000 on a deployment each,
# so that the accounting rows the finished jobs leave make up most of
# the live heap (about 50 MB at the end of a run). It is the
# starting point for submit-path and retained-heap work. The profiles
# are written once every deployment has closed, so what the jobs keep
# is the Accounting.appendRow line of `go tool pprof
# -sample_index=alloc_space bin/ecosched.test bin/submit-mem.out`; the
# gcBgMarkWorker line of the CPU top is the collector's share.
profile-submit:
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) $(GO) test -run XXX -bench 'SubmitLatency$$' -benchtime=500000x -count=5 -benchmem \
		-o bin/ecosched.test -cpuprofile bin/submit-cpu.out -memprofile bin/submit-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/submit-cpu.out

# alloc-check guards the allocation guarantees of the hot paths. The
# simulator's must report 0 allocs/op, or a heap allocation has crept
# into a per-event path: the telemetry emit path (counter,
# gauge, bucketed histogram), the simclock schedule+pop cycle, the IPMI
# sampler's run-ahead over a running job, the slurm submit→complete cycle (pooled jobs, the job as its own
# completion event, aggregate accounting), the sweep's trace CSV encoder on a reused buffer, a
# scheduling pass that walks a
# saturated cluster's whole window under all three energy policies and
# starts nothing (hold, place and their maintained state), the pass one
# arrival costs on that window once the rest is settled, the pass one
# primary's completion costs on it, and PredictService.Predict on a
# cache hit (untraced; the $$ keeps the traced variant, which allocates
# spans by design, out). The paper's budgeted path has fixed ceilings
# instead, as measured (go1.24): a cache-hit job_submit_eco with
# settings.json on disk allocates nothing (the settings store answers
# from its last read while its inotify watch is quiet); the whole
# opted-in sbatch + WaitFor once, the Job record.
alloc-check:
	$(GO) test -run XXX -bench 'CounterInc|BucketedHistogramObserve|GaugeSet|SimSchedule$$|SamplerRunAhead|SubmitSteadyState|TraceAppendCSV|PolicyPassSaturated|PolicyPassArrival|PolicyPassCompletion|EcoSubmitCacheHit|PredictCacheHit$$|SubmitLatency$$' -benchtime=1000x -benchmem . ./internal/metrics ./internal/simclock ./internal/ipmi ./internal/telemetry ./internal/slurm ./internal/ecoplugin | \
	awk '{ print } /allocs\/op$$/ { seen++; limit = ($$1 ~ /^BenchmarkSubmitLatency/) ? 1 : 0; if ($$(NF-1) + 0 > limit) { bad = 1; print "alloc-check: " $$1 " allocates " $$(NF-1) " times per op, ceiling " limit } } END { if (seen < 13) { print "alloc-check: expected 13 benchmarks, saw " seen+0; exit 1 }; exit bad }'

# serve-smoke journals a quick benchmark into a fresh data directory,
# boots `chronus serve` on it, and fails unless /metrics, /healthz and
# /trace answer 200 with the expected content, /trace holding the
# benchmark's journalled span.
serve-smoke:
	./scripts/serve-smoke.sh

# loadgen-smoke drives the sustained-load harness in both modes and
# fails if the submit-latency SLO is violated.
loadgen-smoke:
	./scripts/loadgen-smoke.sh

# mutants runs the mutation matrix (scripts/mutants.sh): each one-hunk
# patch under scripts/mutants/ is applied to a temporary copy of the
# tree, the patched package's tests and the root package's run, and the
# tests that kill it are printed. A mutant that survives fails the
# target. CI's fuzz job runs it; tier-1 does not.
mutants:
	./scripts/mutants.sh

# loc prints the non-test Go line count, the number ROADMAP.md and
# CHANGES.md quote (bench/ is a module of its own; testdata holds lint
# fixtures).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | grep -v /testdata/ | xargs cat | wc -l

clean:
	$(GO) clean -testcache
