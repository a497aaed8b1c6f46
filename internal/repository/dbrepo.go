package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ecosched/internal/filedb"
)

// DBRepo implements Repository on internal/filedb — the embedded
// database playing SQLite's role in the paper.
type DBRepo struct {
	db         *filedb.DB
	systems    *filedb.Table
	runs       *filedb.Table
	benchmarks *filedb.Table
	models     *filedb.Table

	// benchRows caches the benchmarks table decoded, in id order, as
	// of its filedb version benchVer; ListBenchmarks filters copies of
	// it. Version 0 is the empty table, so the zero cache is valid.
	benchMu   sync.Mutex
	benchVer  uint64
	benchRows []Benchmark
}

// OpenDB opens (creating if needed) a filedb-backed repository rooted
// at dir.
func OpenDB(dir string) (*DBRepo, error) {
	db, err := filedb.Open(dir)
	if err != nil {
		return nil, err
	}
	r := &DBRepo{db: db}
	for _, t := range []struct {
		name string
		dst  **filedb.Table
	}{
		{"systems", &r.systems},
		{"runs", &r.runs},
		{"benchmarks", &r.benchmarks},
		{"models", &r.models},
	} {
		tbl, err := db.Table(t.name)
		if err != nil {
			db.Close()
			return nil, err
		}
		*t.dst = tbl
	}
	return r, nil
}

// Close implements Repository.
func (r *DBRepo) Close() error { return r.db.Close() }

// SaveSystem implements Repository.
func (r *DBRepo) SaveSystem(s System) (int64, error) {
	if s.Key == "" {
		return 0, fmt.Errorf("repository: system key is empty")
	}
	if existing, ok, err := r.FindSystemByKey(s.Key); err != nil {
		return 0, err
	} else if ok {
		return existing.ID, nil
	}
	id, err := r.systems.Insert(s)
	if err != nil {
		return 0, err
	}
	s.ID = id
	if err := r.systems.Update(id, s); err != nil {
		return 0, err
	}
	return id, nil
}

// GetSystem implements Repository.
func (r *DBRepo) GetSystem(id int64) (System, error) {
	var s System
	if err := r.systems.Get(id, &s); err != nil {
		return System{}, mapErr(err, "system", id)
	}
	s.ID = id
	return s, nil
}

// FindSystemByKey implements Repository.
func (r *DBRepo) FindSystemByKey(key string) (System, bool, error) {
	var found System
	ok := false
	r.systems.Each(func(id int64, data json.RawMessage) bool {
		var s System
		if json.Unmarshal(data, &s) == nil && s.Key == key {
			s.ID = id
			found, ok = s, true
			return false
		}
		return true
	})
	return found, ok, nil
}

// ListSystems implements Repository.
func (r *DBRepo) ListSystems() ([]System, error) {
	var out []System
	r.systems.Each(func(id int64, data json.RawMessage) bool {
		var s System
		if json.Unmarshal(data, &s) == nil {
			s.ID = id
			out = append(out, s)
		}
		return true
	})
	return out, nil
}

// SaveRun implements Repository.
func (r *DBRepo) SaveRun(run Run) (int64, error) {
	id, err := r.runs.Insert(run)
	if err != nil {
		return 0, err
	}
	run.ID = id
	return id, r.runs.Update(id, run)
}

// ListRuns implements Repository.
func (r *DBRepo) ListRuns(systemID int64) ([]Run, error) {
	var out []Run
	r.runs.Each(func(id int64, data json.RawMessage) bool {
		var run Run
		if json.Unmarshal(data, &run) == nil && (systemID == 0 || run.SystemID == systemID) {
			run.ID = id
			out = append(out, run)
		}
		return true
	})
	return out, nil
}

// SaveBenchmarks implements Repository. The whole batch goes to the
// log as one contiguous write via filedb.InsertMany, with the final
// id embedded in each stored row up front, so a batch of n rows costs
// n log records and one syscall.
func (r *DBRepo) SaveBenchmarks(bs []Benchmark) ([]int64, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	for i, b := range bs {
		if b.SystemID == 0 {
			return nil, fmt.Errorf("repository: benchmark %d without system id", i)
		}
	}
	return r.benchmarks.InsertMany(len(bs), func(i int, id int64) (any, error) {
		bs[i].ID = id
		return bs[i], nil
	})
}

// ListBenchmarks implements Repository. The table is decoded once per
// filedb version, so a sweep's reads of its own rows after the last
// write (the experiment's row list, then training) decode them once. A
// row that does not decode is an error naming its id: a caller such as
// the sweep's torn-batch recovery must see every row in the index.
func (r *DBRepo) ListBenchmarks(systemID int64, appHash string) ([]Benchmark, error) {
	r.benchMu.Lock()
	defer r.benchMu.Unlock()
	if ver := r.benchmarks.Version(); ver != r.benchVer {
		rows := make([]Benchmark, 0, r.benchmarks.Len())
		var err error
		r.benchmarks.Each(func(id int64, data json.RawMessage) bool {
			var b Benchmark
			if err = json.Unmarshal(data, &b); err != nil {
				err = fmt.Errorf("repository: benchmark %d: %w", id, err)
				return false
			}
			b.ID = id
			rows = append(rows, b)
			return true
		})
		if err != nil {
			return nil, err
		}
		r.benchVer, r.benchRows = ver, rows
	}
	match := func(b *Benchmark) bool {
		return (systemID == 0 || b.SystemID == systemID) && (appHash == "" || b.AppHash == appHash)
	}
	n := 0
	for i := range r.benchRows {
		if match(&r.benchRows[i]) {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Benchmark, 0, n)
	for i := range r.benchRows {
		if match(&r.benchRows[i]) {
			out = append(out, r.benchRows[i])
		}
	}
	return out, nil
}

// SaveModel implements Repository.
func (r *DBRepo) SaveModel(m ModelMeta) (int64, error) {
	if m.Optimizer == "" || m.BlobKey == "" {
		return 0, fmt.Errorf("repository: model metadata incomplete (optimizer=%q blob=%q)", m.Optimizer, m.BlobKey)
	}
	id, err := r.models.Insert(m)
	if err != nil {
		return 0, err
	}
	m.ID = id
	return id, r.models.Update(id, m)
}

// GetModel implements Repository.
func (r *DBRepo) GetModel(id int64) (ModelMeta, error) {
	var m ModelMeta
	if err := r.models.Get(id, &m); err != nil {
		return ModelMeta{}, mapErr(err, "model", id)
	}
	m.ID = id
	return m, nil
}

// ListModels implements Repository.
func (r *DBRepo) ListModels() ([]ModelMeta, error) {
	var out []ModelMeta
	r.models.Each(func(id int64, data json.RawMessage) bool {
		var m ModelMeta
		if json.Unmarshal(data, &m) == nil {
			m.ID = id
			out = append(out, m)
		}
		return true
	})
	return out, nil
}

func mapErr(err error, kind string, id int64) error {
	if errors.Is(err, filedb.ErrNotFound) {
		return fmt.Errorf("%w: %s %d", ErrNotFound, kind, id)
	}
	return err
}
