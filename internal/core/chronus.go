// Package core is Chronus's application layer — the business logic of
// the paper's four functions (§3.1.2): benchmarking, model building,
// model pre-loading and submit-time prediction, plus the `set`
// configuration command. Following the paper's Clean Architecture
// (§4.1), this package depends only on integration *interfaces*
// (Repository, Optimizer, Application Runner, Local Storage, System
// Service, System Info, File Repository); the concrete implementations
// are injected at the composition root.
package core

import (
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
	"ecosched/internal/sysinfo"
	"ecosched/internal/telemetry"
	"ecosched/internal/trace"
)

// ApplicationRunner is the paper's Application Runner integration
// interface: run the benchmarked application once in a given
// configuration and report what it achieved. The only implementation
// the paper ships is HPCG (see runner.go).
type ApplicationRunner interface {
	Name() string
	// BinaryPath identifies the application for hashing.
	BinaryPath() string
	// Run blocks (in simulated time) until the job finishes.
	Run(cfg perfmodel.Config) (RunResult, error)
	// Rebind returns an equivalent runner — same application, same job
	// size — bound to a freshly provisioned cluster. The benchmark
	// sweep measures every configuration through it (see sweep.go).
	Rebind(c *slurm.Controller) (ApplicationRunner, error)
}

// RunResult is what one application run reports back.
type RunResult struct {
	GFLOPS  float64
	Runtime time.Duration
}

// SystemService is the paper's System Service integration interface:
// telemetry sampling while benchmarks run. The IPMI implementation
// lives in runner.go.
type SystemService interface {
	// StartSampling begins collecting a trace at the given interval;
	// the returned stop function ends collection and returns the trace.
	StartSampling(interval time.Duration) (stop func() *telemetry.Trace)
}

// Deps wires the integration interfaces into the application layer.
type Deps struct {
	Repo     repository.Repository
	Blob     blob.Store
	Settings settings.Store
	SysInfo  sysinfo.Provider
	FS       procfs.FileReader // for the plugin-visible system hash
	Runner   ApplicationRunner
	LocalDir string           // head-node model directory (paper: /opt/chronus/optimizer)
	Now      func() time.Time // simulated clock
	LogW     io.Writer        // nil = discard
	// Metrics is the optional observability registry; nil disables
	// instrumentation (every metrics type is nil-safe).
	Metrics *metrics.Registry
	// Tracer is the optional decision tracer; nil disables spans (every
	// trace type is nil-safe, so the hot path carries no overhead).
	Tracer *trace.Tracer

	// Retry tunes bounded retry-with-backoff on the transient load
	// stages (settings load, model read, db query, blob fetch). The
	// zero value disables retrying — the seed behavior.
	Retry RetryPolicy
	// Sleep is the backoff hook; nil skips the wait (simulated
	// deployments advance no real time during backoff, and internal/core
	// is a deterministic package — time.Sleep is lint-forbidden here).
	Sleep func(time.Duration)
	// ReadFile reads pre-loaded model files; nil means os.ReadFile.
	// The composition root swaps in a fault-injecting reader so chaos
	// runs can tear model reads without touching the real disk.
	ReadFile func(string) ([]byte, error)

	// Provision builds the node stack each sweep configuration is
	// measured on: the benchmark sweep is a worker-pool fan-out over
	// independently provisioned nodes (see sweep.go).
	Provision NodeProvisioner
	// Parallelism caps how many configurations are measured at once;
	// <= 0 means GOMAXPROCS.
	Parallelism int
}

func (d Deps) validate() error {
	switch {
	case d.Repo == nil:
		return fmt.Errorf("core: nil repository")
	case d.Blob == nil:
		return fmt.Errorf("core: nil blob store")
	case d.Settings == nil:
		return fmt.Errorf("core: nil settings store")
	case d.SysInfo == nil:
		return fmt.Errorf("core: nil system info provider")
	case d.FS == nil:
		return fmt.Errorf("core: nil file system")
	case d.Runner == nil:
		return fmt.Errorf("core: nil application runner")
	case d.Provision == nil:
		return fmt.Errorf("core: nil node provisioner")
	case d.LocalDir == "":
		return fmt.Errorf("core: empty local model directory")
	case d.Now == nil:
		return fmt.Errorf("core: nil clock")
	}
	return nil
}

// Chronus bundles the five services behind one handle, the way the
// CLI's five commands map onto them.
type Chronus struct {
	deps     Deps
	log      *log.Logger
	cache    *modelCache
	inflight *inflight

	Benchmark *BenchmarkService
	InitModel *InitModelService
	LoadModel *LoadModelService
	Predict   *PredictService
	Set       *SetService
}

// Drain blocks until every in-flight prediction — including any
// backoff retries it is sleeping through — has returned, then flushes
// the async trace journal. Deployment teardown calls this first, so
// closing the repository never races a retry loop that would otherwise
// keep poking a half-closed store, and every span those predictions
// emitted is on disk before the journal closes.
func (c *Chronus) Drain() {
	c.inflight.drain()
	c.deps.Tracer.Drain()
}

// inflight counts active predictions so teardown can wait them out.
type inflight struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newInflight() *inflight {
	i := &inflight{}
	i.cond = sync.NewCond(&i.mu)
	return i
}

func (i *inflight) enter() {
	i.mu.Lock()
	i.n++
	i.mu.Unlock()
}

func (i *inflight) exit() {
	i.mu.Lock()
	i.n--
	if i.n == 0 {
		i.cond.Broadcast()
	}
	i.mu.Unlock()
}

func (i *inflight) drain() {
	i.mu.Lock()
	for i.n > 0 {
		i.cond.Wait()
	}
	i.mu.Unlock()
}

// New validates the wiring and constructs the service bundle.
func New(deps Deps) (*Chronus, error) {
	return newWithCache(deps, newModelCache())
}

// newWithCache builds the bundle around an existing prediction cache,
// so rewires (WithRunner) keep the warmed entries and, crucially, the
// invalidation hooks of the new handle still reach the cache the old
// handle's PredictService serves from.
func newWithCache(deps Deps, cache *modelCache) (*Chronus, error) {
	if err := deps.validate(); err != nil {
		return nil, err
	}
	w := deps.LogW
	if w == nil {
		w = io.Discard
	}
	logger := log.New(w, "chronus ", 0)
	c := &Chronus{deps: deps, log: logger, cache: cache, inflight: newInflight()}
	c.Benchmark = newBenchmarkService(deps, logger)
	c.InitModel = &InitModelService{deps: deps, log: logger}
	c.LoadModel = &LoadModelService{deps: deps, log: logger, cache: cache}
	c.Predict = &PredictService{
		deps: deps, cache: cache, retry: newRetrier(deps), inflight: c.inflight,
		// Hot-path handles resolved once: the cache-hit path must not
		// take the registry map lock per submit. All nil-safe when
		// deps.Metrics is nil.
		mCacheHit:  deps.Metrics.Counter(metricPredictCacheHit),
		mCacheMiss: deps.Metrics.Counter(metricPredictCacheMiss),
		mLatency:   deps.Metrics.BucketedHistogram(MetricPredictLatency),
	}
	c.Set = &SetService{deps: deps, cache: cache}
	return c, nil
}
