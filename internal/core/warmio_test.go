package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ecosched/internal/blob"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// storageCalls counts the calls made into each storage interface the
// submit path can reach.
type storageCalls struct {
	settingsLoads, settingsSaves, procfsReads, repo, blob, readFile int
}

type countingSettings struct {
	inner settings.Store
	n     *storageCalls
}

func (s countingSettings) Load() (settings.Settings, error) {
	s.n.settingsLoads++
	return s.inner.Load()
}

func (s countingSettings) Save(v settings.Settings) error {
	s.n.settingsSaves++
	return s.inner.Save(v)
}

type countingFS struct {
	inner procfs.FileReader
	n     *storageCalls
}

func (f countingFS) ReadFile(path string) ([]byte, error) {
	f.n.procfsReads++
	return f.inner.ReadFile(path)
}

// countingRepo counts every Repository method; it does not embed the
// interface, so a method added to it must be counted here to compile.
type countingRepo struct {
	inner repository.Repository
	n     *storageCalls
}

func (r countingRepo) SaveSystem(s repository.System) (int64, error) {
	r.n.repo++
	return r.inner.SaveSystem(s)
}
func (r countingRepo) GetSystem(id int64) (repository.System, error) {
	r.n.repo++
	return r.inner.GetSystem(id)
}
func (r countingRepo) FindSystemByKey(key string) (repository.System, bool, error) {
	r.n.repo++
	return r.inner.FindSystemByKey(key)
}
func (r countingRepo) ListSystems() ([]repository.System, error) {
	r.n.repo++
	return r.inner.ListSystems()
}
func (r countingRepo) SaveRun(run repository.Run) (int64, error) {
	r.n.repo++
	return r.inner.SaveRun(run)
}
func (r countingRepo) ListRuns(systemID int64) ([]repository.Run, error) {
	r.n.repo++
	return r.inner.ListRuns(systemID)
}
func (r countingRepo) SaveBenchmarks(rows []repository.Benchmark) ([]int64, error) {
	r.n.repo++
	return r.inner.SaveBenchmarks(rows)
}
func (r countingRepo) ListBenchmarks(systemID int64, appHash string) ([]repository.Benchmark, error) {
	r.n.repo++
	return r.inner.ListBenchmarks(systemID, appHash)
}
func (r countingRepo) SaveModel(m repository.ModelMeta) (int64, error) {
	r.n.repo++
	return r.inner.SaveModel(m)
}
func (r countingRepo) GetModel(id int64) (repository.ModelMeta, error) {
	r.n.repo++
	return r.inner.GetModel(id)
}
func (r countingRepo) ListModels() ([]repository.ModelMeta, error) {
	r.n.repo++
	return r.inner.ListModels()
}
func (r countingRepo) Close() error {
	r.n.repo++
	return r.inner.Close()
}

// countingBlob counts every blob.Store method, unembedded for the same
// reason as countingRepo.
type countingBlob struct {
	inner blob.Store
	n     *storageCalls
}

func (b countingBlob) Put(key string, data []byte) error {
	b.n.blob++
	return b.inner.Put(key, data)
}
func (b countingBlob) Get(key string) ([]byte, error) {
	b.n.blob++
	return b.inner.Get(key)
}
func (b countingBlob) Delete(key string) error {
	b.n.blob++
	return b.inner.Delete(key)
}
func (b countingBlob) List() ([]string, error) {
	b.n.blob++
	return b.inner.List()
}

// TestWarmSubmissionIO pins the storage I/O of the paper's budgeted
// path: the real job_submit_eco over the real PredictService. Once one
// opted-in submission has warmed the predict cache, each further one
// makes one settings Load (the plugin's state check) and two procfs
// reads (the system hash), is answered from the cache, and touches no
// database, blob store or model file. Kills
// scripts/mutants/cache-hit-loads-settings.patch and
// scripts/mutants/plugin-caches-state.patch.
func TestWarmSubmissionIO(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t)
			benchmarkSweep(t, r)
			systems, _ := r.chronus.InitModel.Systems()
			meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.chronus.LoadModel.Run(meta.ID); err != nil {
				t.Fatal(err)
			}

			var n storageCalls
			deps := r.chronus.deps
			deps.Settings = countingSettings{deps.Settings, &n}
			deps.Repo = countingRepo{deps.Repo, &n}
			deps.Blob = countingBlob{deps.Blob, &n}
			deps.ReadFile = func(path string) ([]byte, error) {
				n.readFile++
				return os.ReadFile(path)
			}
			deps.Metrics = metrics.New()
			opts := []ecoplugin.Option{ecoplugin.WithMetrics(deps.Metrics)}
			if traced {
				j, err := trace.OpenJournal(filepath.Join(t.TempDir(), "events.jsonl"), 0)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { j.Close() })
				deps.Tracer = trace.New(j, trace.WithClock(deps.Now))
				t.Cleanup(func() { deps.Tracer.Close() })
				opts = append(opts, ecoplugin.WithTracer(deps.Tracer))
			}
			c, err := New(deps)
			if err != nil {
				t.Fatal(err)
			}
			plugin, err := ecoplugin.New(countingFS{r.fs, &n}, c.Predict, deps.Settings, opts...)
			if err != nil {
				t.Fatal(err)
			}
			submit := func() {
				desc := slurm.JobDesc{BinaryPath: hpcgPath, NumTasks: 64, Comment: ecoplugin.OptInComment}
				if _, err := plugin.JobSubmit(context.Background(), &desc, 1000); err != nil {
					t.Fatal(err)
				}
			}

			submit()
			if plugin.Rewritten != 1 {
				t.Fatalf("the warm-up submission was not rewritten: %v", plugin.LastErr)
			}
			n = storageCalls{}
			const subs = 20
			for i := 0; i < subs; i++ {
				submit()
			}
			if want := (storageCalls{settingsLoads: subs, procfsReads: 2 * subs}); n != want {
				t.Fatalf("%d warm submissions made %+v storage calls, want %+v", subs, n, want)
			}
			if got := deps.Metrics.Counter("chronus.eco.plugin.source." + string(ecoplugin.SourceCache)).Value(); got != subs {
				t.Fatalf("%d of %d warm submissions answered from the cache (last error %v)", got, subs, plugin.LastErr)
			}
		})
	}
}
