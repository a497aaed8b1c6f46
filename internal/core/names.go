package core

// Metric, span, and event names. ecolint/metricname requires every
// name handed to metrics.Registry or trace.Tracer to be a
// package-level constant in the chronus.* namespace, so the whole
// exposition surface is greppable from this one block and renames are
// single-line diffs.
const (
	spanPredict             = "chronus.predict"
	spanPredictCacheHit     = "chronus.predict.cache_hit"
	spanPredictWait         = "chronus.predict.singleflight_wait"
	spanPredictLoad         = "chronus.predict.load"
	spanPredictSettingsLoad = "chronus.predict.settings_load"
	spanPredictReadModel    = "chronus.predict.read_model"
	spanPredictDBQuery      = "chronus.predict.db_query"
	spanPredictBlobFetch    = "chronus.predict.blob_fetch"
	spanPredictOptimize     = "chronus.predict.optimize"
	spanBenchmark           = "chronus.benchmark"
	spanBenchmarkRun        = "chronus.benchmark.run"
	spanLoadModel           = "chronus.load_model"

	metricPredictCacheHit         = "chronus.predict.cache_hit"
	metricPredictCacheMiss        = "chronus.predict.cache_miss"
	metricPredictCacheEntries     = "chronus.predict.cache_entries"
	metricPredictBudgetViolations = "chronus.predict.budget_violations"
	metricPredictCold             = "chronus.predict.cold"
	metricBenchmarkFailed         = "chronus.benchmark.failed"
	metricBenchmarkRuns           = "chronus.benchmark.runs"
	metricBenchmarkJobRuntime     = "chronus.benchmark.job_runtime"
	metricModelLoads              = "chronus.model.loads"
	// metricPredictDegraded counts fail-open degradations: predictions
	// that errored and let the plugin submit the job unmodified. The
	// same name doubles as the degradation trace event.
	metricPredictDegraded = "chronus.predict.degraded"
	eventPredictDegraded  = "chronus.predict.degraded"
	// metricRetryPrefix + stage counts retries per load stage.
	metricRetryPrefix     = "chronus.retry."
	eventRetryAttempt     = "chronus.retry.attempt"
	metricSweepWorkers    = "chronus.sweep.workers"
	metricSweepQueueDepth = "chronus.sweep.queue_depth"
	metricSweepBatchRows  = "chronus.sweep.batch_rows"
)

// MetricPredictLatency is the bucketed decision-latency histogram of
// the prediction hot path. Exported so the root package's loadgen
// harness and SLO evaluation can find it in a snapshot by name.
const MetricPredictLatency = "chronus.predict.latency"
