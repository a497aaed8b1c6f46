package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/optimizer"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/trace"
)

// Simulated decision latencies (what each step of the slurm-config
// path costs in the real deployment the paper describes). The pre-load
// design exists precisely because the cold path — database query plus
// blob download — does not fit Slurm's submit budget; the A2 ablation
// measures this.
const (
	LatencyLocalRead = 2 * time.Millisecond
	LatencyDBQuery   = 150 * time.Millisecond
	LatencyBlobFetch = 400 * time.Millisecond
	LatencyPredict   = 5 * time.Millisecond
)

// PredictService is Chronus function 4, `chronus slurm-config`: given
// the system and binary hashes from job_submit_eco, return the
// energy-efficient configuration (paper §3.1.2, purple arrows). It
// implements ecoplugin.Predictor.
//
// Repeated predictions for the same (system, application) pair are
// answered from an in-memory cache of the decoded optimizer and its
// precomputed best configuration: a hit costs only LatencyLocalRead —
// no file read, no JSON decode, no optimizer sweep. Concurrent cold
// lookups for the same pair are deduplicated (singleflight), and
// `chronus load-model` / `chronus set` invalidate the affected
// entries.
type PredictService struct {
	deps     Deps
	cache    *modelCache
	retry    *retrier
	inflight *inflight
	// AllowColdLoad permits falling back to the database + blob
	// storage when no model is pre-loaded. The A2 ablation enables it
	// to demonstrate the latency-budget violation; production keeps it
	// off.
	AllowColdLoad bool

	// Cached hot-path metric handles (see newWithCache); nil-safe.
	mCacheHit  *metrics.Counter
	mCacheMiss *metrics.Counter
	mLatency   *metrics.BucketedHistogram
}

var _ ecoplugin.Predictor = (*PredictService)(nil)

// Predict implements ecoplugin.Predictor. When req.Budget is set and
// the chosen path's projected latency cannot fit, it refuses up front
// with ecoplugin.ErrBudgetExceeded rather than burning the time — the
// plugin then submits the job unmodified.
func (s *PredictService) Predict(ctx context.Context, req ecoplugin.PredictRequest) (ecoplugin.PredictResult, error) {
	if s.inflight != nil {
		s.inflight.enter()
		defer s.inflight.exit()
	}
	ctx, span := s.deps.Tracer.Start(ctx, spanPredict)
	res, err := s.predict(ctx, req)
	if span != nil {
		span.SetAttr("source", string(res.Source))
		span.SetAttr("sim_latency", res.Latency.String())
		if err == nil {
			span.SetAttr("config", res.Config.String())
		}
	}
	span.End(err)
	if err != nil {
		s.degrade(err)
	}
	return res, err
}

// degrade records a fail-open degradation: the prediction errored, so
// the plugin will submit the job unmodified. Context cancellation is
// the caller abandoning the request, not Chronus degrading, and is not
// counted.
func (s *PredictService) degrade(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.deps.Metrics.Counter(metricPredictDegraded).Inc()
	if s.deps.Tracer != nil {
		s.deps.Tracer.Event(eventPredictDegraded, map[string]string{"cause": err.Error()})
	}
}

func (s *PredictService) predict(ctx context.Context, req ecoplugin.PredictRequest) (ecoplugin.PredictResult, error) {
	if err := ctx.Err(); err != nil {
		return ecoplugin.PredictResult{}, err
	}
	m := s.deps.Metrics
	key := cacheKey{req.SystemHash, req.BinaryHash}

	if e, ok := s.cache.peek(key); ok {
		s.mCacheHit.Inc()
		if s.deps.Tracer != nil {
			_, hs := s.deps.Tracer.Start(ctx, spanPredictCacheHit)
			hs.End(nil)
		}
		res := ecoplugin.PredictResult{Config: e.best, Latency: LatencyLocalRead, Source: ecoplugin.SourceCache}
		s.mLatency.ObserveDuration(res.Latency)
		return res, nil
	}
	s.mCacheMiss.Inc()

	e, isLoader := s.cache.lookup(key)
	if !isLoader {
		_, ws := s.deps.Tracer.Start(ctx, spanPredictWait)
		//lint:ignore ecolint/nodeterminism waiter wake order is observationally equivalent: both arms converge on the loader's published entry, and cancellation only affects the cancelled caller — never the journal or replay state
		select {
		case <-ctx.Done():
			ws.End(ctx.Err())
			return ecoplugin.PredictResult{}, ctx.Err()
		case <-e.done:
			ws.End(nil)
		}
	} else {
		best, opt, latency, source, err := s.load(ctx, req)
		s.cache.finish(key, e, best, opt, latency, source, err)
		m.Gauge(metricPredictCacheEntries).Set(float64(s.cache.size()))
	}

	if e.err != nil {
		if errors.Is(e.err, ecoplugin.ErrBudgetExceeded) {
			m.Counter(metricPredictBudgetViolations).Inc()
		}
		return ecoplugin.PredictResult{Latency: e.latency}, e.err
	}
	// Waiters ride the loader's work and share its cost and source.
	res := ecoplugin.PredictResult{Config: e.best, Latency: e.latency, Source: e.source}
	s.mLatency.ObserveDuration(res.Latency)
	return res, nil
}

// load performs one uncached prediction: the pre-loaded local-disk
// path when the model registry knows the pair, the cold database +
// blob path otherwise (A2 only). The returned latency is what the
// path cost, including the portion spent before an error. Each stage
// (model read, database query, blob fetch, optimizer sweep) gets its
// own child span carrying its simulated cost.
func (s *PredictService) load(ctx context.Context, req ecoplugin.PredictRequest) (_ perfmodel.Config, _ optimizer.Optimizer, _ time.Duration, src ecoplugin.PredictSource, err error) {
	var span *trace.Span
	ctx, span = s.deps.Tracer.Start(ctx, spanPredictLoad)
	defer func() {
		if span != nil {
			span.SetAttr("path", string(src))
		}
		span.End(err)
	}()

	latency := LatencyLocalRead // the settings lookup below
	var cfg settings.Settings
	err = s.retry.do(ctx, stageSettingsLoad, func() error {
		var lerr error
		cfg, lerr = s.deps.Settings.Load()
		return lerr
	})
	if err != nil {
		return perfmodel.Config{}, nil, latency, ecoplugin.SourcePreloaded, err
	}
	if local, ok := cfg.FindModelByHash(req.SystemHash, req.BinaryHash); ok {
		projected := latency + LatencyLocalRead + LatencyPredict
		if req.Budget > 0 && projected > req.Budget {
			return perfmodel.Config{}, nil, latency, ecoplugin.SourcePreloaded, fmt.Errorf(
				"core: pre-loaded path needs %v of a %v budget: %w", projected, req.Budget, ecoplugin.ErrBudgetExceeded)
		}
		_, rs := s.deps.Tracer.Start(ctx, spanPredictReadModel)
		read := s.deps.ReadFile
		if read == nil {
			read = os.ReadFile
		}
		var data []byte
		err = s.retry.do(ctx, stageModelRead, func() error {
			var rerr error
			data, rerr = read(local.Path)
			return rerr
		})
		if err != nil {
			rs.End(err)
			return perfmodel.Config{}, nil, latency, ecoplugin.SourcePreloaded, fmt.Errorf("core: pre-loaded model: %w", err)
		}
		latency += LatencyLocalRead
		if rs != nil {
			rs.SetAttr("sim_latency", LatencyLocalRead.String())
			rs.SetAttr("path", local.Path)
		}
		rs.End(nil)
		best, opt, err := s.decodeAndSweepTraced(ctx, data)
		latency += LatencyPredict
		return best, opt, latency, ecoplugin.SourcePreloaded, err
	}

	if !s.AllowColdLoad {
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, fmt.Errorf(
			"core: no pre-loaded model for system %s application %s", req.SystemHash, req.BinaryHash)
	}
	s.deps.Metrics.Counter(metricPredictCold).Inc()

	projected := latency + LatencyDBQuery + LatencyBlobFetch + LatencyPredict
	if req.Budget > 0 && projected > req.Budget {
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, fmt.Errorf(
			"core: cold path needs %v of a %v budget: %w", projected, req.Budget, ecoplugin.ErrBudgetExceeded)
	}

	// Cold path: find the system, its newest model, fetch the blob.
	latency += LatencyDBQuery
	_, dbs := s.deps.Tracer.Start(ctx, spanPredictDBQuery)
	if dbs != nil {
		dbs.SetAttr("sim_latency", LatencyDBQuery.String())
	}
	var systems []repository.System
	err = s.retry.do(ctx, stageDBQuery, func() error {
		var qerr error
		systems, qerr = s.deps.Repo.ListSystems()
		return qerr
	})
	if err != nil {
		dbs.End(err)
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, err
	}
	var sysID int64 = -1
	for _, sys := range systems {
		if sys.ProcHash == req.SystemHash {
			sysID = sys.ID
			break
		}
	}
	if sysID < 0 {
		err = fmt.Errorf("core: unknown system %s", req.SystemHash)
		dbs.End(err)
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, err
	}
	var models []repository.ModelMeta
	err = s.retry.do(ctx, stageDBQuery, func() error {
		var qerr error
		models, qerr = s.deps.Repo.ListModels()
		return qerr
	})
	if err != nil {
		dbs.End(err)
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, err
	}
	var blobKey string
	for _, m := range models {
		if m.SystemID == sysID && m.AppHash == req.BinaryHash {
			blobKey = m.BlobKey // list is id-ordered; keep the newest
		}
	}
	if blobKey == "" {
		err = fmt.Errorf("core: no model for system %s application %s", req.SystemHash, req.BinaryHash)
		dbs.End(err)
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, err
	}
	dbs.End(nil)
	_, bs := s.deps.Tracer.Start(ctx, spanPredictBlobFetch)
	if bs != nil {
		bs.SetAttr("sim_latency", LatencyBlobFetch.String())
		bs.SetAttr("key", blobKey)
	}
	var data []byte
	err = s.retry.do(ctx, stageBlobFetch, func() error {
		var gerr error
		data, gerr = s.deps.Blob.Get(blobKey)
		return gerr
	})
	bs.End(err)
	if err != nil {
		return perfmodel.Config{}, nil, latency, ecoplugin.SourceCold, err
	}
	latency += LatencyBlobFetch
	best, opt, err := s.decodeAndSweepTraced(ctx, data)
	latency += LatencyPredict
	return best, opt, latency, ecoplugin.SourceCold, err
}

// decodeAndSweepTraced wraps decodeAndSweep in the predict.optimize
// span — the stage the decoded-model cache exists to skip.
func (s *PredictService) decodeAndSweepTraced(ctx context.Context, data []byte) (perfmodel.Config, optimizer.Optimizer, error) {
	_, span := s.deps.Tracer.Start(ctx, spanPredictOptimize)
	best, opt, err := decodeAndSweep(data)
	if span != nil {
		span.SetAttr("sim_latency", LatencyPredict.String())
		if err == nil {
			span.SetAttr("config", best.String())
		}
	}
	span.End(err)
	return best, opt, err
}

// decodeAndSweep unmarshals a model file, decodes its optimizer and
// sweeps the configuration space — the expensive work the cache
// exists to amortise.
func decodeAndSweep(data []byte) (perfmodel.Config, optimizer.Optimizer, error) {
	var file LocalModelFile
	if err := json.Unmarshal(data, &file); err != nil {
		return perfmodel.Config{}, nil, fmt.Errorf("core: model file: %w", err)
	}
	opt, err := optimizer.Decode(file.Optimizer)
	if err != nil {
		return perfmodel.Config{}, nil, err
	}
	best, err := opt.BestConfig(file.Space)
	if err != nil {
		return perfmodel.Config{}, nil, err
	}
	return best, opt, nil
}

// ConfigJSONOutput renders the configuration the way `chronus
// slurm-config` prints it for the plugin: a JSON object.
func ConfigJSONOutput(cfg perfmodel.Config) string {
	out, _ := json.Marshal(map[string]int{
		"cores":            cfg.Cores,
		"threads_per_core": cfg.ThreadsPerCore,
		"frequency":        cfg.FreqKHz,
	})
	return string(out)
}

// binaryHash is the application identifier shared with the plugin.
func binaryHash(path string) string { return ecoplugin.BinaryHash(path) }
