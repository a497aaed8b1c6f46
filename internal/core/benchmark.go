package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strconv"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
	"ecosched/internal/telemetry"
)

// DefaultSampleInterval is the paper's benchmark sampling rate
// ("sampling the energy usage ... at a 2-second interval", §3.1.2).
const DefaultSampleInterval = 2 * time.Second

// BenchmarkService is Chronus function 1: run the application across
// configurations, sampling power, and persist one Benchmark row per
// configuration (`chronus benchmark`).
type BenchmarkService struct {
	deps Deps
	log  *log.Logger
	// Handles of the metrics the serial coordinator touches per row and
	// per batch, resolved once so a commit takes no registry lock. All
	// nil-safe when deps.Metrics is nil.
	mRuns       *metrics.Counter
	mFailed     *metrics.Counter
	mJobRuntime *metrics.BucketedHistogram
	mBatchRows  *metrics.BucketedHistogram
}

func newBenchmarkService(deps Deps, logger *log.Logger) *BenchmarkService {
	return &BenchmarkService{
		deps: deps, log: logger,
		mRuns:       deps.Metrics.Counter(metricBenchmarkRuns),
		mFailed:     deps.Metrics.Counter(metricBenchmarkFailed),
		mJobRuntime: deps.Metrics.BucketedHistogram(metricBenchmarkJobRuntime),
		mBatchRows:  deps.Metrics.BucketedHistogram(metricSweepBatchRows),
	}
}

// ConfigJSON is the paper's benchmark configuration JSON shape (§3.3):
//
//	{"cores": 32, "threads_per_core": 2, "frequency": 2200000}
type ConfigJSON struct {
	Cores          int `json:"cores"`
	ThreadsPerCore int `json:"threads_per_core"`
	Frequency      int `json:"frequency"` // kHz
}

// ParseConfigsJSON parses the --configurations file: a JSON array of
// ConfigJSON entries.
func ParseConfigsJSON(data []byte) ([]perfmodel.Config, error) {
	var raw []ConfigJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("core: configurations JSON: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("core: configurations JSON is empty")
	}
	out := make([]perfmodel.Config, len(raw))
	for i, r := range raw {
		cfg := perfmodel.Config{Cores: r.Cores, FreqKHz: r.Frequency, ThreadsPerCore: r.ThreadsPerCore}
		if cfg.ThreadsPerCore == 0 {
			cfg.ThreadsPerCore = 1
		}
		if cfg.Cores <= 0 || cfg.FreqKHz <= 0 {
			return nil, fmt.Errorf("core: configuration %d invalid: %+v", i, r)
		}
		out[i] = cfg
	}
	return out, nil
}

// DefaultConfigs enumerates every configuration the system supports —
// the paper's behaviour when no --configurations file is given ("it
// will benchmark all configurations based on the system CPU").
func (s *BenchmarkService) DefaultConfigs() ([]perfmodel.Config, error) {
	info, err := s.deps.SysInfo.Collect()
	if err != nil {
		return nil, err
	}
	var out []perfmodel.Config
	for cores := 1; cores <= info.Cores; cores++ {
		for _, f := range info.FrequenciesKHz {
			for tpc := 1; tpc <= info.ThreadsPerCore; tpc++ {
				out = append(out, perfmodel.Config{Cores: cores, FreqKHz: f, ThreadsPerCore: tpc})
			}
		}
	}
	return out, nil
}

// Run benchmarks each configuration once and returns the run id. A
// zero interval uses DefaultSampleInterval.
func (s *BenchmarkService) Run(configs []perfmodel.Config, interval time.Duration) (int64, error) {
	return s.RunContext(context.Background(), configs, interval)
}

// RunContext is Run with caller-controlled cancellation: when ctx is
// canceled mid-sweep the configurations already measured stay
// persisted (a contiguous prefix of the sweep) and ctx.Err() comes
// back. ctx also parents the sweep's trace spans.
func (s *BenchmarkService) RunContext(ctx context.Context, configs []perfmodel.Config, interval time.Duration) (int64, error) {
	if len(configs) == 0 {
		return 0, fmt.Errorf("core: no configurations to benchmark")
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}

	ctx, span := s.deps.Tracer.Start(ctx, spanBenchmark)
	if span != nil {
		span.SetAttr("configurations", strconv.Itoa(len(configs)))
	}
	runID, err := s.run(ctx, configs, interval)
	span.End(err)
	return runID, err
}

func (s *BenchmarkService) run(ctx context.Context, configs []perfmodel.Config, interval time.Duration) (int64, error) {
	sysID, sysRec, err := s.registerSystem()
	if err != nil {
		return 0, err
	}
	appHash := ecoplugin.BinaryHash(s.deps.Runner.BinaryPath())
	runID, err := s.deps.Repo.SaveRun(repository.Run{
		SystemID: sysID, AppHash: appHash, Started: s.deps.Now(),
		Note: fmt.Sprintf("%d configurations", len(configs)),
	})
	if err != nil {
		return 0, err
	}

	if err := s.runPooled(ctx, runID, sysID, sysRec, appHash, configs, interval); err != nil {
		return runID, err
	}
	s.log.Printf("Run data has been saved to the repository (run %d).", runID)
	return runID, nil
}

// registerSystem collects and persists the system identity (idempotent
// on the system key) and returns its id and record.
func (s *BenchmarkService) registerSystem() (int64, repository.System, error) {
	info, err := s.deps.SysInfo.Collect()
	if err != nil {
		return 0, repository.System{}, err
	}
	procHash, err := ecoplugin.SystemHash(s.deps.FS)
	if err != nil {
		return 0, repository.System{}, err
	}
	rec := repository.System{
		Key:            info.Key(),
		ProcHash:       procHash,
		CPUName:        info.CPUName,
		Cores:          info.Cores,
		ThreadsPerCore: info.ThreadsPerCore,
		FrequenciesKHz: info.FrequenciesKHz,
		RAMMB:          info.RAMMB,
	}
	id, err := s.deps.Repo.SaveSystem(rec)
	if err != nil {
		return 0, repository.System{}, err
	}
	rec.ID = id
	s.log.Printf("Benchmark for %s with %d cores complete registration (system %d)", info, info.Cores, id)
	return id, rec, nil
}

// LoadTrace retrieves the raw power samples saved with a benchmark.
func (s *BenchmarkService) LoadTrace(b repository.Benchmark) (*telemetry.Trace, error) {
	if b.TraceKey == "" {
		return nil, fmt.Errorf("core: benchmark %d has no stored trace", b.ID)
	}
	data, err := s.deps.Blob.Get(b.TraceKey)
	if err != nil {
		return nil, err
	}
	return telemetry.ReadCSV(bytes.NewReader(data), b.TraceKey, b.Created.Add(-time.Duration(b.RuntimeSeconds*float64(time.Second))))
}

// RunResume behaves like Run but skips configurations that already
// have a benchmark row for this system and application, so an
// interrupted sweep (a crashed node mid-way through 138 twenty-minute
// runs) restarts without repeating measured work. It returns the run
// id and how many configurations were skipped.
func (s *BenchmarkService) RunResume(configs []perfmodel.Config, interval time.Duration) (int64, int, error) {
	if len(configs) == 0 {
		return 0, 0, fmt.Errorf("core: no configurations to benchmark")
	}
	sysID, _, err := s.registerSystem()
	if err != nil {
		return 0, 0, err
	}
	appHash := ecoplugin.BinaryHash(s.deps.Runner.BinaryPath())
	existing, err := s.deps.Repo.ListBenchmarks(sysID, appHash)
	if err != nil {
		return 0, 0, err
	}
	done := map[[3]int]bool{}
	for _, b := range existing {
		done[[3]int{b.Cores, b.FreqKHz, b.ThreadsPerCore}] = true
	}
	var todo []perfmodel.Config
	for _, cfg := range configs {
		if !done[[3]int{cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore}] {
			todo = append(todo, cfg)
		}
	}
	skipped := len(configs) - len(todo)
	if len(todo) == 0 {
		s.log.Printf("all %d configurations already benchmarked; nothing to do", len(configs))
		return 0, skipped, nil
	}
	s.log.Printf("resuming sweep: %d of %d configurations remain", len(todo), len(configs))
	runID, err := s.Run(todo, interval)
	return runID, skipped, err
}
