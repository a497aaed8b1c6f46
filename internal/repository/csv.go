package repository

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// CSVRepo implements Repository as four CSV files in a directory —
// the paper's "CSV File" Repository implementation. All rows are held
// in memory; a system, run or model save rewrites its file atomically,
// which keeps the files valid at all times and is plenty for
// hundreds of rows; benchmark batches append (SaveBenchmarks).
type CSVRepo struct {
	mu  sync.Mutex
	dir string

	systems    []System
	runs       []Run
	benchmarks []Benchmark
	models     []ModelMeta
	// broken, once set, fails every write: a failed append could not
	// be cut back off benchmarks.csv, and a row appended after its torn
	// tail would be lost to the next open.
	broken error
}

// OpenCSV opens (creating if needed) a CSV repository rooted at dir.
func OpenCSV(dir string) (*CSVRepo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	r := &CSVRepo{dir: dir}
	if err := r.loadAll(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close implements Repository. CSV files are rewritten on each save,
// so there is nothing to flush.
func (r *CSVRepo) Close() error { return nil }

// SaveSystem implements Repository.
func (r *CSVRepo) SaveSystem(s System) (int64, error) {
	if s.Key == "" {
		return 0, fmt.Errorf("repository: system key is empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.systems {
		if existing.Key == s.Key {
			return existing.ID, nil
		}
	}
	s.ID = nextID(len(r.systems), func(i int) int64 { return r.systems[i].ID })
	r.systems = append(r.systems, s)
	return s.ID, r.writeSystems()
}

// GetSystem implements Repository.
func (r *CSVRepo) GetSystem(id int64) (System, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.systems {
		if s.ID == id {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("%w: system %d", ErrNotFound, id)
}

// FindSystemByKey implements Repository.
func (r *CSVRepo) FindSystemByKey(key string) (System, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.systems {
		if s.Key == key {
			return s, true, nil
		}
	}
	return System{}, false, nil
}

// ListSystems implements Repository.
func (r *CSVRepo) ListSystems() ([]System, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]System(nil), r.systems...), nil
}

// SaveRun implements Repository.
func (r *CSVRepo) SaveRun(run Run) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	run.ID = nextID(len(r.runs), func(i int) int64 { return r.runs[i].ID })
	r.runs = append(r.runs, run)
	return run.ID, r.writeRuns()
}

// ListRuns implements Repository.
func (r *CSVRepo) ListRuns(systemID int64) ([]Run, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Run
	for _, run := range r.runs {
		if systemID == 0 || run.SystemID == systemID {
			out = append(out, run)
		}
	}
	return out, nil
}

// SaveBenchmarks implements Repository. The batch is appended to
// benchmarks.csv in one write; a missing file is created (header
// included) atomically.
func (r *CSVRepo) SaveBenchmarks(bs []Benchmark) ([]int64, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	for i, b := range bs {
		if b.SystemID == 0 {
			return nil, fmt.Errorf("repository: benchmark %d without system id", i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := nextID(len(r.benchmarks), func(i int) int64 { return r.benchmarks[i].ID })
	ids := make([]int64, len(bs))
	rows := make([][]string, len(bs))
	for i := range bs {
		bs[i].ID = id + int64(i)
		ids[i] = bs[i].ID
		rows[i] = benchmarkRow(bs[i])
	}
	whole, err := r.appendRows("benchmarks.csv", benchmarkHeader, rows)
	r.benchmarks = append(r.benchmarks, bs[:whole]...)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// ListBenchmarks implements Repository.
func (r *CSVRepo) ListBenchmarks(systemID int64, appHash string) ([]Benchmark, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Benchmark
	for _, b := range r.benchmarks {
		if (systemID == 0 || b.SystemID == systemID) && (appHash == "" || b.AppHash == appHash) {
			out = append(out, b)
		}
	}
	return out, nil
}

// SaveModel implements Repository.
func (r *CSVRepo) SaveModel(m ModelMeta) (int64, error) {
	if m.Optimizer == "" || m.BlobKey == "" {
		return 0, fmt.Errorf("repository: model metadata incomplete (optimizer=%q blob=%q)", m.Optimizer, m.BlobKey)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.ID = nextID(len(r.models), func(i int) int64 { return r.models[i].ID })
	r.models = append(r.models, m)
	return m.ID, r.writeModels()
}

// GetModel implements Repository.
func (r *CSVRepo) GetModel(id int64) (ModelMeta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.models {
		if m.ID == id {
			return m, nil
		}
	}
	return ModelMeta{}, fmt.Errorf("%w: model %d", ErrNotFound, id)
}

// ListModels implements Repository.
func (r *CSVRepo) ListModels() ([]ModelMeta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ModelMeta(nil), r.models...), nil
}

func nextID(n int, get func(int) int64) int64 {
	var max int64
	for i := 0; i < n; i++ {
		if id := get(i); id > max {
			max = id
		}
	}
	return max + 1
}

// ---- file formats ----

func (r *CSVRepo) loadAll() error {
	if err := r.loadFile("systems.csv", 8, func(rec []string) error {
		s := System{}
		var err error
		if s.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
			return err
		}
		s.Key = rec[1]
		s.ProcHash = rec[2]
		s.CPUName = rec[3]
		if s.Cores, err = strconv.Atoi(rec[4]); err != nil {
			return err
		}
		if s.ThreadsPerCore, err = strconv.Atoi(rec[5]); err != nil {
			return err
		}
		if s.FrequenciesKHz, err = parseIntList(rec[6]); err != nil {
			return err
		}
		if s.RAMMB, err = strconv.Atoi(rec[7]); err != nil {
			return err
		}
		r.systems = append(r.systems, s)
		return nil
	}); err != nil {
		return err
	}

	if err := r.loadFile("runs.csv", 5, func(rec []string) error {
		run := Run{}
		var err error
		if run.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
			return err
		}
		if run.SystemID, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
			return err
		}
		run.AppHash = rec[2]
		if run.Started, err = parseUnix(rec[3]); err != nil {
			return err
		}
		run.Note = rec[4]
		r.runs = append(r.runs, run)
		return nil
	}); err != nil {
		return err
	}

	if err := r.loadFile("benchmarks.csv", 15, func(rec []string) error {
		b := Benchmark{}
		ints := []struct {
			dst *int64
			idx int
		}{{&b.ID, 0}, {&b.RunID, 1}, {&b.SystemID, 2}}
		for _, f := range ints {
			v, err := strconv.ParseInt(rec[f.idx], 10, 64)
			if err != nil {
				return err
			}
			*f.dst = v
		}
		b.AppHash = rec[3]
		var err error
		if b.Cores, err = strconv.Atoi(rec[4]); err != nil {
			return err
		}
		if b.FreqKHz, err = strconv.Atoi(rec[5]); err != nil {
			return err
		}
		if b.ThreadsPerCore, err = strconv.Atoi(rec[6]); err != nil {
			return err
		}
		floats := []struct {
			dst *float64
			idx int
		}{{&b.GFLOPS, 7}, {&b.AvgSystemW, 8}, {&b.AvgCPUW, 9}, {&b.SystemKJ, 10}, {&b.CPUKJ, 11}, {&b.RuntimeSeconds, 12}}
		for _, f := range floats {
			v, err := strconv.ParseFloat(rec[f.idx], 64)
			if err != nil {
				return err
			}
			*f.dst = v
		}
		if b.Created, err = parseUnix(rec[13]); err != nil {
			return err
		}
		b.TraceKey = rec[14]
		r.benchmarks = append(r.benchmarks, b)
		return nil
	}); err != nil {
		return err
	}

	return r.loadFile("models.csv", 8, func(rec []string) error {
		m := ModelMeta{}
		var err error
		if m.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
			return err
		}
		if m.SystemID, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
			return err
		}
		m.AppHash = rec[2]
		m.Optimizer = rec[3]
		m.BlobKey = rec[4]
		if m.TrainRows, err = strconv.Atoi(rec[5]); err != nil {
			return err
		}
		if m.CVR2, err = strconv.ParseFloat(rec[6], 64); err != nil {
			return err
		}
		if m.Created, err = parseUnix(rec[7]); err != nil {
			return err
		}
		r.models = append(r.models, m)
		return nil
	})
}

func (r *CSVRepo) loadFile(name string, fields int, row func([]string) error) error {
	path := filepath.Join(r.dir, name)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return fmt.Errorf("repository: %s: %w", name, err)
	}
	for i, rec := range records {
		if i == 0 {
			continue // header
		}
		if len(rec) != fields {
			return fmt.Errorf("repository: %s row %d has %d fields, want %d", name, i, len(rec), fields)
		}
		if err := row(rec); err != nil {
			return fmt.Errorf("repository: %s row %d: %w", name, i, err)
		}
	}
	return nil
}

func (r *CSVRepo) writeFile(name string, header []string, rows [][]string) error {
	if r.broken != nil {
		return r.broken
	}
	path := filepath.Join(r.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err == nil {
		err = w.WriteAll(rows)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repository: %w", err)
	}
	return nil
}

func (r *CSVRepo) writeSystems() error {
	rows := make([][]string, len(r.systems))
	for i, s := range r.systems {
		rows[i] = []string{
			strconv.FormatInt(s.ID, 10), s.Key, s.ProcHash, s.CPUName,
			strconv.Itoa(s.Cores), strconv.Itoa(s.ThreadsPerCore),
			formatIntList(s.FrequenciesKHz), strconv.Itoa(s.RAMMB),
		}
	}
	return r.writeFile("systems.csv",
		[]string{"id", "key", "proc_hash", "cpu_name", "cores", "threads_per_core", "frequencies_khz", "ram_mb"}, rows)
}

func (r *CSVRepo) writeRuns() error {
	rows := make([][]string, len(r.runs))
	for i, run := range r.runs {
		rows[i] = []string{
			strconv.FormatInt(run.ID, 10), strconv.FormatInt(run.SystemID, 10),
			run.AppHash, strconv.FormatInt(run.Started.Unix(), 10), run.Note,
		}
	}
	return r.writeFile("runs.csv",
		[]string{"id", "system_id", "app_hash", "started_unix", "note"}, rows)
}

var benchmarkHeader = []string{"id", "run_id", "system_id", "app_hash", "cores", "freq_khz", "threads_per_core",
	"gflops", "avg_system_w", "avg_cpu_w", "system_kj", "cpu_kj", "runtime_seconds", "created_unix",
	"trace_key"}

func benchmarkRow(b Benchmark) []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		strconv.FormatInt(b.ID, 10), strconv.FormatInt(b.RunID, 10),
		strconv.FormatInt(b.SystemID, 10), b.AppHash,
		strconv.Itoa(b.Cores), strconv.Itoa(b.FreqKHz), strconv.Itoa(b.ThreadsPerCore),
		ff(b.GFLOPS), ff(b.AvgSystemW), ff(b.AvgCPUW), ff(b.SystemKJ), ff(b.CPUKJ),
		ff(b.RuntimeSeconds), strconv.FormatInt(b.Created.Unix(), 10), b.TraceKey,
	}
}

// appendRows appends rows to an existing CSV file in one write; when
// the file does not exist yet it is created atomically with header +
// rows. Unlike writeFile this is O(len(rows)), not O(total rows). It
// returns how many of rows are on the file whole. A failed write (a
// full disk stops one short) is cut back off the file, which then
// holds none of rows; a torn row left behind would fail every later
// open. Should the cut fail too, the rows the write completed stay, and
// the repository fails every later write.
func (r *CSVRepo) appendRows(name string, header []string, rows [][]string) (whole int, err error) {
	if r.broken != nil {
		return 0, r.broken
	}
	path := filepath.Join(r.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		if err := r.writeFile(name, header, rows); err != nil {
			return 0, err
		}
		return len(rows), nil
	}
	if err != nil {
		return 0, fmt.Errorf("repository: %w", err)
	}
	var buf bytes.Buffer
	ends := make([]int, len(rows)) // rows[i] ends at ends[i] in buf
	w := csv.NewWriter(&buf)
	for i, row := range rows {
		w.Write(row)
		w.Flush()
		ends[i] = buf.Len()
	}
	err = w.Error()
	var st os.FileInfo
	if err == nil {
		st, err = f.Stat()
	}
	if err == nil {
		var n int
		if n, err = f.Write(buf.Bytes()); err == nil {
			whole = len(rows)
		} else if terr := f.Truncate(st.Size()); terr != nil {
			r.broken = fmt.Errorf("repository: %s keeps a torn tail: %w", path, terr)
			for whole < len(rows) && ends[whole] <= n {
				whole++
			}
			err = errors.Join(err, r.broken)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return whole, fmt.Errorf("repository: %w", err)
	}
	return whole, nil
}

func (r *CSVRepo) writeModels() error {
	rows := make([][]string, len(r.models))
	for i, m := range r.models {
		rows[i] = []string{
			strconv.FormatInt(m.ID, 10), strconv.FormatInt(m.SystemID, 10),
			m.AppHash, m.Optimizer, m.BlobKey, strconv.Itoa(m.TrainRows),
			strconv.FormatFloat(m.CVR2, 'g', -1, 64),
			strconv.FormatInt(m.Created.Unix(), 10),
		}
	}
	return r.writeFile("models.csv",
		[]string{"id", "system_id", "app_hash", "optimizer", "blob_key", "train_rows", "cv_r2", "created_unix"}, rows)
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func formatIntList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ";")
}

func parseUnix(s string) (time.Time, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(v, 0).UTC(), nil
}
