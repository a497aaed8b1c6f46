// Package repository is Chronus's Repository integration interface
// (paper §3.2): persistence for runs, benchmarks, system information
// and model metadata. The paper ships CSV and SQLite implementations
// behind one interface; this package ships CSV (csv.go) and filedb
// (dbrepo.go), the stdlib-only embedded store standing in for SQLite.
package repository

import (
	"fmt"
	"time"
)

// System is a machine identity record — what init-model's --system
// flag selects (paper Figure 8 lists stored systems).
type System struct {
	ID  int64  `json:"id"`
	Key string `json:"key"` // stable identity (sysinfo.SystemInfo.Key)
	// ProcHash is the plugin-visible identifier: simple_hash over
	// /proc/cpuinfo + /proc/meminfo (paper §4.2.1). job_submit_eco
	// passes this to slurm-config, so Chronus stores it alongside the
	// human-readable key.
	ProcHash       string `json:"proc_hash"`
	CPUName        string `json:"cpu_name"`
	Cores          int    `json:"cores"`
	ThreadsPerCore int    `json:"threads_per_core"`
	FrequenciesKHz []int  `json:"frequencies_khz"`
	RAMMB          int    `json:"ram_mb"`
}

// Benchmark is one measured configuration point: the data model
// building consumes ("energy usage over time, execution time, and the
// configuration of the system", §3.1.2).
type Benchmark struct {
	ID             int64     `json:"id"`
	RunID          int64     `json:"run_id"`
	SystemID       int64     `json:"system_id"`
	AppHash        string    `json:"app_hash"` // hash of the benchmarked binary
	Cores          int       `json:"cores"`
	FreqKHz        int       `json:"freq_khz"`
	ThreadsPerCore int       `json:"threads_per_core"`
	GFLOPS         float64   `json:"gflops"`
	AvgSystemW     float64   `json:"avg_system_w"`
	AvgCPUW        float64   `json:"avg_cpu_w"`
	SystemKJ       float64   `json:"system_kj"`
	CPUKJ          float64   `json:"cpu_kj"`
	RuntimeSeconds float64   `json:"runtime_seconds"`
	Created        time.Time `json:"created"`
	// TraceKey locates the raw power-over-time samples of this run in
	// blob storage ("energy usage over time", §3.1.2); empty when the
	// trace was not retained.
	TraceKey string `json:"trace_key,omitempty"`
}

// GFLOPSPerWatt is the efficiency metric of Tables 1 and 4–6.
func (b Benchmark) GFLOPSPerWatt() float64 {
	if b.AvgSystemW <= 0 {
		return 0
	}
	return b.GFLOPS / b.AvgSystemW
}

// ModelMeta is the stored metadata of a trained optimizer: "path in
// blob storage, time on creation, etc." (§3.1.2 model building step 3).
type ModelMeta struct {
	ID        int64  `json:"id"`
	SystemID  int64  `json:"system_id"`
	AppHash   string `json:"app_hash"`
	Optimizer string `json:"optimizer"` // optimizer type name
	BlobKey   string `json:"blob_key"`  // key in blob storage
	TrainRows int    `json:"train_rows"`
	// CVR2 is the k-fold cross-validated R² of the model on its
	// training history (0 when not applicable, e.g. brute force).
	CVR2    float64   `json:"cv_r2"`
	Created time.Time `json:"created"`
}

// Run groups the benchmarks of one `chronus benchmark` invocation.
type Run struct {
	ID       int64     `json:"id"`
	SystemID int64     `json:"system_id"`
	AppHash  string    `json:"app_hash"`
	Started  time.Time `json:"started"`
	Note     string    `json:"note,omitempty"`
}

// ErrNotFound is returned for missing records.
var ErrNotFound = fmt.Errorf("repository: not found")

// Repository is the integration interface the application layer
// depends on (dependency inversion, paper Listing 1).
type Repository interface {
	// Systems. SaveSystem is idempotent on Key: saving a system whose
	// Key already exists returns the existing id.
	SaveSystem(System) (int64, error)
	GetSystem(id int64) (System, error)
	FindSystemByKey(key string) (System, bool, error)
	ListSystems() ([]System, error)

	// Runs.
	SaveRun(Run) (int64, error)
	ListRuns(systemID int64) ([]Run, error)

	// Benchmarks.
	// SaveBenchmarks persists a batch of rows in one write: ids are
	// assigned in slice order and the whole batch is committed
	// together (append-mode CSV, single filedb transaction), so a
	// sweep of n configurations does O(n) I/O instead of O(n²).
	SaveBenchmarks([]Benchmark) ([]int64, error)
	// ListBenchmarks filters by system and, when appHash != "", by
	// application. Results come back in insertion order.
	ListBenchmarks(systemID int64, appHash string) ([]Benchmark, error)

	// Models.
	SaveModel(ModelMeta) (int64, error)
	GetModel(id int64) (ModelMeta, error)
	ListModels() ([]ModelMeta, error)

	// Close releases any underlying resources.
	Close() error
}
