package core

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/optimizer"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
)

// InitModelService is Chronus function 2, `chronus init-model`: load
// the benchmarks of one system/application, train an optimizer,
// upload it to blob storage, and save its metadata (paper §3.1.2,
// blue arrows).
type InitModelService struct {
	deps Deps
	log  *log.Logger
}

// Systems lists stored systems — what the CLI shows when --system is
// not given (paper Figure 8).
func (s *InitModelService) Systems() ([]repository.System, error) {
	return s.deps.Repo.ListSystems()
}

// Run trains a model of the given type for a system and the runner's
// application, returning the stored metadata.
func (s *InitModelService) Run(modelType string, systemID int64) (repository.ModelMeta, error) {
	opt, err := optimizer.New(modelType)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	sys, err := s.deps.Repo.GetSystem(systemID)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	appHash := binaryHashOf(s.deps)
	rows, err := s.deps.Repo.ListBenchmarks(systemID, appHash)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	if len(rows) == 0 {
		return repository.ModelMeta{}, fmt.Errorf("core: no benchmarks for system %d and application %s", systemID, appHash)
	}
	s.log.Printf("initializing model, getting system (%d benchmarks)", len(rows))
	if err := opt.Train(rows); err != nil {
		return repository.ModelMeta{}, err
	}
	cvR2, hasCV, err := optimizer.CrossValidateR2(opt.Name(), rows, 5)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	if hasCV {
		s.log.Printf("training model done (5-fold CV R² = %.4f)", cvR2)
	} else {
		s.log.Printf("training model done")
	}

	payload, err := optimizer.Encode(opt)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	file := LocalModelFile{
		SystemID:   systemID,
		SystemHash: sys.ProcHash,
		AppHash:    appHash,
		Space:      optimizer.SpaceFor(sys),
		Optimizer:  payload,
	}
	blobData, err := json.Marshal(file)
	if err != nil {
		return repository.ModelMeta{}, fmt.Errorf("core: %w", err)
	}
	key := fmt.Sprintf("optimizers/sys%d-%s-%s-%d.json", systemID, appHash, opt.Name(), s.deps.Now().Unix())
	if err := s.deps.Blob.Put(key, blobData); err != nil {
		return repository.ModelMeta{}, err
	}

	meta := repository.ModelMeta{
		SystemID:  systemID,
		AppHash:   appHash,
		Optimizer: opt.Name(),
		BlobKey:   key,
		TrainRows: len(rows),
		CVR2:      cvR2,
		Created:   s.deps.Now(),
	}
	id, err := s.deps.Repo.SaveModel(meta)
	if err != nil {
		return repository.ModelMeta{}, err
	}
	meta.ID = id
	s.log.Printf("model %d (%s) uploaded to %s", id, opt.Name(), key)
	return meta, nil
}

// LocalModelFile is the serialised model as stored in blob storage and
// on the head node's local disk: the optimizer envelope plus
// everything slurm-config needs to answer without the database.
type LocalModelFile struct {
	ModelID    int64           `json:"model_id"`
	SystemID   int64           `json:"system_id"`
	SystemHash string          `json:"system_hash"`
	AppHash    string          `json:"app_hash"`
	Space      optimizer.Space `json:"space"`
	Optimizer  json.RawMessage `json:"optimizer"`
}

// LoadModelService is Chronus function 3, `chronus load-model`:
// download a model from blob storage to the head node's local disk and
// register it in the local settings, so prediction stays inside
// Slurm's submit-time budget (paper §3.1.2, red arrows).
type LoadModelService struct {
	deps  Deps
	log   *log.Logger
	cache *modelCache
}

// Models lists stored model metadata — what the CLI shows when
// --model is not given (paper Figure 9).
func (s *LoadModelService) Models() ([]repository.ModelMeta, error) {
	return s.deps.Repo.ListModels()
}

// Run pre-loads the given model and returns its local registration.
func (s *LoadModelService) Run(modelID int64) (_ settings.LocalModel, err error) {
	_, span := s.deps.Tracer.Start(context.Background(), spanLoadModel)
	if span != nil {
		span.SetAttr("model_id", strconv.FormatInt(modelID, 10))
		defer func() { span.End(err) }()
	}
	meta, err := s.deps.Repo.GetModel(modelID)
	if err != nil {
		return settings.LocalModel{}, err
	}
	data, err := s.deps.Blob.Get(meta.BlobKey)
	if err != nil {
		return settings.LocalModel{}, err
	}
	var file LocalModelFile
	if err := json.Unmarshal(data, &file); err != nil {
		return settings.LocalModel{}, fmt.Errorf("core: model blob %s: %w", meta.BlobKey, err)
	}
	file.ModelID = meta.ID
	data, err = json.Marshal(file)
	if err != nil {
		return settings.LocalModel{}, fmt.Errorf("core: %w", err)
	}

	if err := os.MkdirAll(s.deps.LocalDir, 0o755); err != nil {
		return settings.LocalModel{}, fmt.Errorf("core: %w", err)
	}
	path := filepath.Join(s.deps.LocalDir, fmt.Sprintf("model-%d.json", meta.ID))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return settings.LocalModel{}, fmt.Errorf("core: %w", err)
	}

	local := settings.LocalModel{
		ModelID:    meta.ID,
		SystemID:   meta.SystemID,
		SystemHash: file.SystemHash,
		AppHash:    meta.AppHash,
		Optimizer:  meta.Optimizer,
		Path:       path,
	}
	cfg, err := s.deps.Settings.Load()
	if err != nil {
		return settings.LocalModel{}, err
	}
	cfg.SetModel(local)
	if err := s.deps.Settings.Save(cfg); err != nil {
		return settings.LocalModel{}, err
	}
	s.cache.dropUnnamed(file.SystemHash, meta.AppHash)
	s.deps.Metrics.Counter(metricModelLoads).Inc()
	s.log.Printf("model %d pre-loaded to %s", meta.ID, path)
	return local, nil
}

func binaryHashOf(deps Deps) string {
	return ecoplugin.BinaryHash(deps.Runner.BinaryPath())
}
