package fault

import (
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/sysinfo"
	"ecosched/internal/telemetry"
)

// The decorators below wrap each integration interface with the thin
// fallible layer the chaos suite drives. Every wrapper consults the
// injector first (so an error fault suppresses the real operation,
// like an unreachable store would) except reads with partial mode,
// which mutate the successfully read payload — a torn blob is data
// that arrived, just not all of it.

// Repository wraps a repository with fault injection.
func Repository(inner repository.Repository, inj *Injector) repository.Repository {
	return &faultRepo{inner: inner, inj: inj}
}

type faultRepo struct {
	inner repository.Repository
	inj   *Injector
}

func (r *faultRepo) SaveSystem(s repository.System) (int64, error) {
	if err := r.inj.Fail(OpRepoSaveSystem); err != nil {
		return 0, err
	}
	return r.inner.SaveSystem(s)
}

func (r *faultRepo) GetSystem(id int64) (repository.System, error) {
	if err := r.inj.Fail(OpRepoGetSystem); err != nil {
		return repository.System{}, err
	}
	return r.inner.GetSystem(id)
}

func (r *faultRepo) FindSystemByKey(key string) (repository.System, bool, error) {
	if err := r.inj.Fail(OpRepoFindSystem); err != nil {
		return repository.System{}, false, err
	}
	return r.inner.FindSystemByKey(key)
}

func (r *faultRepo) ListSystems() ([]repository.System, error) {
	if err := r.inj.Fail(OpRepoListSystems); err != nil {
		return nil, err
	}
	return r.inner.ListSystems()
}

func (r *faultRepo) SaveRun(run repository.Run) (int64, error) {
	if err := r.inj.Fail(OpRepoSaveRun); err != nil {
		return 0, err
	}
	return r.inner.SaveRun(run)
}

func (r *faultRepo) ListRuns(systemID int64) ([]repository.Run, error) {
	if err := r.inj.Fail(OpRepoListRuns); err != nil {
		return nil, err
	}
	return r.inner.ListRuns(systemID)
}

// SaveBenchmarks supports torn-batch faults: a torn rule commits only
// a leading prefix of the rows and then reports failure — the
// append-only-log analog of a crash mid-transaction. The persisted
// rows therefore stay a contiguous prefix of the batch, which is
// exactly the durability contract the sweep coordinator relies on.
func (r *faultRepo) SaveBenchmarks(rows []repository.Benchmark) ([]int64, error) {
	keep, err := r.inj.Partition(OpRepoSaveBenchmarks, len(rows))
	if err == nil {
		return r.inner.SaveBenchmarks(rows)
	}
	if keep > 0 {
		if _, innerErr := r.inner.SaveBenchmarks(rows[:keep]); innerErr != nil {
			return nil, innerErr
		}
	}
	return nil, err
}

func (r *faultRepo) ListBenchmarks(systemID int64, appHash string) ([]repository.Benchmark, error) {
	if err := r.inj.Fail(OpRepoListBenchmarks); err != nil {
		return nil, err
	}
	return r.inner.ListBenchmarks(systemID, appHash)
}

func (r *faultRepo) SaveModel(m repository.ModelMeta) (int64, error) {
	if err := r.inj.Fail(OpRepoSaveModel); err != nil {
		return 0, err
	}
	return r.inner.SaveModel(m)
}

func (r *faultRepo) GetModel(id int64) (repository.ModelMeta, error) {
	if err := r.inj.Fail(OpRepoGetModel); err != nil {
		return repository.ModelMeta{}, err
	}
	return r.inner.GetModel(id)
}

func (r *faultRepo) ListModels() ([]repository.ModelMeta, error) {
	if err := r.inj.Fail(OpRepoListModels); err != nil {
		return nil, err
	}
	return r.inner.ListModels()
}

// Close never injects: teardown must always reach the inner store, or
// a chaos run would leak the very resources the leak checker guards.
func (r *faultRepo) Close() error { return r.inner.Close() }

// Blob wraps a blob store with fault injection. Put supports torn
// writes (a prefix of the payload lands, then the write fails); Get
// supports partial reads (a prefix of the stored data comes back,
// successfully — the torn-model shape the predictor must survive).
func Blob(inner blob.Store, inj *Injector) blob.Store {
	return &faultBlob{inner: inner, inj: inj}
}

type faultBlob struct {
	inner blob.Store
	inj   *Injector
}

func (b *faultBlob) Put(key string, data []byte) error {
	mutated, err := b.inj.WriteBytes(OpBlobPut, data)
	if err != nil {
		if len(mutated) > 0 {
			b.inner.Put(key, mutated) //nolint:errcheck — the injected error wins; the torn prefix is best-effort, like a real crash
		}
		return err
	}
	return b.inner.Put(key, mutated)
}

func (b *faultBlob) Get(key string) ([]byte, error) {
	data, err := b.inner.Get(key)
	if err != nil {
		return nil, err
	}
	return b.inj.ReadBytes(OpBlobGet, data)
}

func (b *faultBlob) Delete(key string) error {
	if err := b.inj.Fail(OpBlobDelete); err != nil {
		return err
	}
	return b.inner.Delete(key)
}

func (b *faultBlob) List() ([]string, error) {
	if err := b.inj.Fail(OpBlobList); err != nil {
		return nil, err
	}
	return b.inner.List()
}

func (b *faultBlob) Exists(key string) bool { return b.inner.Exists(key) }

// Settings wraps a settings store with fault injection.
func Settings(inner settings.Store, inj *Injector) settings.Store {
	return &faultSettings{inner: inner, inj: inj}
}

type faultSettings struct {
	inner settings.Store
	inj   *Injector
}

func (s *faultSettings) Load() (settings.Settings, error) {
	if err := s.inj.Fail(OpSettingsLoad); err != nil {
		return settings.Settings{}, err
	}
	return s.inner.Load()
}

func (s *faultSettings) Save(v settings.Settings) error {
	if err := s.inj.Fail(OpSettingsSave); err != nil {
		return err
	}
	return s.inner.Save(v)
}

// SysInfo wraps a system-info provider with fault injection.
func SysInfo(inner sysinfo.Provider, inj *Injector) sysinfo.Provider {
	return &faultSysInfo{inner: inner, inj: inj}
}

type faultSysInfo struct {
	inner sysinfo.Provider
	inj   *Injector
}

func (p *faultSysInfo) Collect() (sysinfo.SystemInfo, error) {
	if err := p.inj.Fail(OpSysInfoCollect); err != nil {
		return sysinfo.SystemInfo{}, err
	}
	return p.inner.Collect()
}

// FileReader wraps a procfs reader with fault injection: errors model
// an unreadable /proc, partial reads a truncated one (the system hash
// then silently differs — the plugin must still fail open, by finding
// no model rather than crashing).
func FileReader(inner procfs.FileReader, inj *Injector) procfs.FileReader {
	return &faultFS{inner: inner, inj: inj}
}

type faultFS struct {
	inner procfs.FileReader
	inj   *Injector
}

func (f *faultFS) ReadFile(path string) ([]byte, error) {
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return f.inj.ReadBytes(OpProcRead, data)
}

// ReadFile wraps a model-file reader (core.Deps.ReadFile) with fault
// injection under the model.read_file operation: errors model a
// vanished pre-load directory, partial reads a torn model file.
func ReadFile(inner func(string) ([]byte, error), inj *Injector) func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		data, err := inner(path)
		if err != nil {
			return nil, err
		}
		return inj.ReadBytes(OpModelRead, data)
	}
}

// samplingSystem matches core.SystemService structurally, so the
// decorator composes with the application layer without this package
// importing it (core's tests import fault; an import cycle otherwise).
type samplingSystem interface {
	StartSampling(interval time.Duration) (stop func() *telemetry.Trace)
}

// System wraps a telemetry sampler with fault injection: an
// ipmi.sample fault drops the whole sampling session — stop returns
// an empty trace, the shape a crashed BMC or revoked /dev/ipmi0
// permission produces mid-benchmark.
func System(inner samplingSystem, inj *Injector) samplingSystem {
	return &faultSystem{inner: inner, inj: inj}
}

type faultSystem struct {
	inner samplingSystem
	inj   *Injector
}

func (s *faultSystem) StartSampling(interval time.Duration) func() *telemetry.Trace {
	if err := s.inj.Fail(OpIPMISample); err != nil {
		return func() *telemetry.Trace { return &telemetry.Trace{} }
	}
	return s.inner.StartSampling(interval)
}
