package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
	"ecosched/internal/slurm"
)

// BenchNode is one independently provisioned measurement stack: a
// single-node cluster plus the telemetry sampler watching that node.
// The benchmark worker pool measures each sweep configuration on a
// fresh BenchNode, so configurations never share mutable simulation
// state and can run concurrently. The application under benchmark is
// bound to the node's cluster per measurement via
// ApplicationRunner.Rebind.
type BenchNode struct {
	Cluster *slurm.Controller
	System  SystemService
	// Close releases the stack once its configuration is measured: the
	// trace has been aggregated and encoded by then and nothing handed
	// to the coordinator refers to it, so the provisioner may reuse
	// the trace's storage for a later configuration (optional).
	Close func()
}

// NodeProvisioner builds the BenchNode for the idx-th configuration of
// a sweep. Implementations must derive any randomness from idx (not
// from which goroutine calls them), so that a configuration's
// measurement is a pure function of (configuration, calibration,
// seed): that is the determinism guarantee that keeps sweep results —
// rows, ids, winner — byte-identical at every parallelism level.
type NodeProvisioner func(idx int) (BenchNode, error)

// parallelism resolves the effective worker count for n jobs.
func (s *BenchmarkService) parallelism(n int) int {
	p := s.deps.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// measured is what a worker hands the coordinator for one
// configuration: either a benchmark row (sans ID and Created, which
// the coordinator assigns at commit time) plus its raw trace, or an
// error.
type measured struct {
	idx      int
	row      repository.Benchmark
	traceCSV []byte
	err      error
}

// runPooled is the worker-pool sweep: configurations fan out across
// parallelism() workers, each measured on its own provisioned node,
// and a coordinator commits completed rows strictly in configuration
// order through the batched repository write path.
//
// Ordering/durability contract: at any moment the persisted rows are
// exactly the configurations 0..k-1 for some k — a contiguous prefix
// in sweep order. On the first error (or context cancellation) the
// prefix already measured keeps flushing, later rows are discarded,
// and the error for the lowest-index failed configuration is returned.
func (s *BenchmarkService) runPooled(ctx context.Context, runID, sysID int64, sysRec repository.System, appHash string, configs []perfmodel.Config, interval time.Duration) error {
	// Validate up front; an invalid configuration truncates the sweep
	// at its index: the rows before it persist, its error comes back.
	limit := len(configs)
	var invalidErr error
	for i, cfg := range configs {
		if err := cfg.Validate(sysRec.Cores, sysRec.ThreadsPerCore); err != nil {
			limit, invalidErr = i, err
			break
		}
	}

	workers := s.parallelism(limit)
	s.deps.Metrics.Gauge(metricSweepWorkers).Set(float64(workers))
	queueDepth := s.deps.Metrics.Gauge(metricSweepQueueDepth)

	// The job queue is pre-filled and closed; cancellation is a check
	// at the top of the worker loop, so in-flight measurements finish
	// and nothing is torn down mid-sample.
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	jobs := make(chan int, limit)
	for i := 0; i < limit; i++ {
		jobs <- i
	}
	close(jobs)
	queueDepth.Set(float64(limit))

	results := make(chan measured, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if workCtx.Err() != nil {
					return
				}
				queueDepth.Set(float64(len(jobs)))
				results <- s.measureConfig(workCtx, idx, runID, sysID, appHash, configs[idx], interval)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Coordinator: reorder buffer + contiguous-prefix flushes. All
	// repository, blob, clock and log access happens here, on the
	// caller's goroutine.
	pending := make(map[int]measured, workers)
	next := 0
	errIdx := limit // lowest configuration index that failed
	var firstErr error
	fail := func(idx int, err error) {
		if idx < errIdx {
			errIdx, firstErr = idx, err
		}
		cancelWork()
	}
	var batch []measured
	for m := range results {
		if m.err != nil {
			s.mFailed.Inc()
			fail(m.idx, m.err)
		} else {
			pending[m.idx] = m
		}
		// Flush the contiguous prefix that just became complete. This
		// runs on every arrival — an error result can still unblock
		// nothing, but rows queued below the error index must land.
		batch = batch[:0]
		for next < errIdx {
			m, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			batch = append(batch, m)
			next++
		}
		if len(batch) == 0 {
			continue
		}
		if err := s.commitBatch(batch); err != nil {
			fail(batch[0].idx, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return invalidErr
}

// commitBatch persists one contiguous run of measured configurations:
// per-row trace blobs, then all rows in a single batched repository
// write. Rows are stamped and logged here, on the coordinator, so ids,
// timestamps and log order follow configuration order at any
// parallelism.
func (s *BenchmarkService) commitBatch(batch []measured) error {
	rows := make([]repository.Benchmark, len(batch))
	for i, m := range batch {
		if err := s.deps.Blob.Put(m.row.TraceKey, m.traceCSV); err != nil {
			return err
		}
		m.row.Created = s.deps.Now()
		rows[i] = m.row
		s.log.Printf("GFLOP/s rating found: %.5f", m.row.GFLOPS)
		s.mRuns.Inc()
		s.mJobRuntime.Observe(m.row.RuntimeSeconds)
	}
	if _, err := s.deps.Repo.SaveBenchmarks(rows); err != nil {
		return err
	}
	s.mBatchRows.Observe(float64(len(rows)))
	return nil
}

// measureConfig is the worker half of the paper's benchmarking flow
// (start the job, sample IPMI until it finishes): provision a node,
// sample it while the application runs, aggregate the trace and render
// its CSV. Everything persistent is left to the coordinator. A panic
// anywhere inside (runner, sampler, aggregation) is converted into an
// error result so one bad worker cannot deadlock the pool.
func (s *BenchmarkService) measureConfig(ctx context.Context, idx int, runID, sysID int64, appHash string, cfg perfmodel.Config, interval time.Duration) (m measured) {
	m.idx = idx
	defer func() {
		if r := recover(); r != nil {
			m.err = fmt.Errorf("core: benchmark worker: config %s panicked: %v", cfg, r)
		}
	}()

	node, err := s.deps.Provision(idx)
	if err != nil {
		m.err = fmt.Errorf("core: provisioning node for config %s: %w", cfg, err)
		return m
	}
	if node.Close != nil {
		defer node.Close()
	}
	runner, err := s.deps.Runner.Rebind(node.Cluster)
	if err != nil {
		m.err = fmt.Errorf("core: binding %s to provisioned node for config %s: %w", s.deps.Runner.Name(), cfg, err)
		return m
	}

	_, span := s.deps.Tracer.Start(ctx, spanBenchmarkRun)
	if span != nil {
		span.SetAttr("config", cfg.String())
		defer func() { span.End(m.err) }()
	}

	stop := node.System.StartSampling(interval)
	sampling := true
	defer func() {
		if sampling {
			stop() // never leave a sampler ticking after a panic
		}
	}()
	result, err := runner.Run(cfg)
	trace := stop()
	sampling = false
	if err != nil {
		m.err = err
		return m
	}
	if span != nil {
		span.SetAttr("gflops", fmt.Sprintf("%.3f", result.GFLOPS))
		span.SetAttr("sim_runtime", result.Runtime.String())
	}
	agg, err := trace.Aggregate()
	if err != nil {
		m.err = fmt.Errorf("core: benchmark trace: %w", err)
		return m
	}
	traceKey := fmt.Sprintf("traces/run%d/%dc-%dkHz-%dtpc.csv", runID, cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore)
	m.row = repository.Benchmark{
		RunID: runID, SystemID: sysID, AppHash: appHash,
		Cores: cfg.Cores, FreqKHz: cfg.FreqKHz, ThreadsPerCore: cfg.ThreadsPerCore,
		GFLOPS:     result.GFLOPS,
		AvgSystemW: agg.AvgSystemW, AvgCPUW: agg.AvgCPUW,
		SystemKJ: agg.SystemKJ, CPUKJ: agg.CPUKJ,
		RuntimeSeconds: result.Runtime.Seconds(),
		TraceKey:       traceKey,
	}
	m.traceCSV = trace.CSV()
	return m
}
