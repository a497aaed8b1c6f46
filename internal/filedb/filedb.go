// Package filedb is a small embedded, file-backed record store — the
// stdlib-only stand-in for the SQLite database Chronus uses as one of
// its Repository implementations. A database is a directory; each
// table is an append-only log of CRC-checked, length-prefixed JSON
// records with an in-memory primary-key index rebuilt on open.
//
// The store survives process restarts, detects corruption and
// tolerates a torn final record (crash during append). A write that
// fails is cut back off the log, so a table shows what a reopen would
// load. Records are only ever put (inserted or replaced); the log is
// never rewritten. It is safe for concurrent use by multiple
// goroutines.
package filedb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DB is a handle to a database directory.
type DB struct {
	dir string

	mu     sync.Mutex
	tables map[string]*Table
	closed bool
}

// Open opens (creating if necessary) a database rooted at dir.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filedb: %w", err)
	}
	return &DB{dir: dir, tables: make(map[string]*Table)}, nil
}

// Close flushes and closes all tables. The DB must not be used after.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	for _, t := range db.tables {
		if err := t.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Table opens (creating if necessary) the named table. Table names
// must be non-empty and contain no path separators.
func (db *DB) Table(name string) (*Table, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("filedb: invalid table name %q", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("filedb: database closed")
	}
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	t, err := openTable(filepath.Join(db.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// Table is one record log with an in-memory index.
type Table struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	size   int64            // length of the log: the end of its last record
	index  map[int64]record // id → latest live record
	nextID int64
	// version counts the records apply has put into the index, so a
	// reader that decoded the table at one version knows the index
	// has not changed while the version stays the same.
	version uint64
	// broken, once set, fails every write: a failed write could not be
	// cut back off the log, and a record appended after its torn tail
	// would be lost to replay.
	broken error
}

type record struct {
	Op   string          `json:"op"` // always "put"
	ID   int64           `json:"id"`
	Data json.RawMessage `json:"data,omitempty"`
}

// ErrNotFound is returned by Get/Update for missing ids.
var ErrNotFound = fmt.Errorf("filedb: record not found")

func openTable(path string) (*Table, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedb: %w", err)
	}
	t := &Table{path: path, f: f, index: make(map[int64]record), nextID: 1}
	if err := t.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// replay scans the log, rebuilding the index. A torn final record
// (partial write before a crash) is discarded by truncating the file;
// corruption elsewhere is an error.
func (t *Table) replay() error {
	data, err := io.ReadAll(t.f)
	if err != nil {
		return fmt.Errorf("filedb: replay %s: %w", t.path, err)
	}
	off := 0
	validEnd := 0
	for off < len(data) {
		if off+8 > len(data) {
			break // torn header
		}
		size := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + 8 + int(size)
		if size > 1<<30 || end > len(data) {
			break // torn payload
		}
		payload := data[off+8 : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == len(data) {
				break // torn final record
			}
			return fmt.Errorf("filedb: %s: corrupt record at offset %d", t.path, off)
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("filedb: %s: bad record at offset %d: %w", t.path, off, err)
		}
		if rec.Op != "put" {
			return fmt.Errorf("filedb: %s: bad record at offset %d: op %q", t.path, off, rec.Op)
		}
		t.apply(rec)
		off = end
		validEnd = end
	}
	if validEnd != len(data) {
		if err := t.f.Truncate(int64(validEnd)); err != nil {
			return fmt.Errorf("filedb: truncating torn tail of %s: %w", t.path, err)
		}
	}
	if _, err := t.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("filedb: %w", err)
	}
	t.size = int64(validEnd)
	return nil
}

// apply is the one place a record enters the index.
func (t *Table) apply(rec record) {
	t.index[rec.ID] = rec
	t.version++
	if rec.ID >= t.nextID {
		t.nextID = rec.ID + 1
	}
}

func (t *Table) appendRecord(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("filedb: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf := append(hdr[:], payload...)
	return t.write(buf, []record{rec})
}

// write appends buf to the log and applies recs to the index; buf is
// recs framed back to back. A failed write
// (a full disk stops one short) is cut back off the log, so the index
// and a later replay agree that none of recs landed. Should the cut
// fail too, the log keeps what the write got out, replay will load the
// records it completed, and so the index takes exactly those; the
// table then fails every later write.
func (t *Table) write(buf []byte, recs []record) error {
	if t.broken != nil {
		return t.broken
	}
	n, err := t.f.Write(buf)
	if err == nil {
		t.size += int64(n)
		for _, rec := range recs {
			t.apply(rec)
		}
		return nil
	}
	err = fmt.Errorf("filedb: append %s: %w", t.path, err)
	if terr := t.f.Truncate(t.size); terr != nil {
		end := 0
		for _, rec := range recs {
			if end += 8 + int(binary.LittleEndian.Uint32(buf[end:])); end > n {
				break
			}
			t.apply(rec)
		}
		t.broken = fmt.Errorf("filedb: %s keeps a torn tail: %w", t.path, terr)
	} else if _, serr := t.f.Seek(t.size, io.SeekStart); serr != nil {
		t.broken = fmt.Errorf("filedb: %s: %w", t.path, serr)
	}
	if t.broken != nil {
		return errors.Join(err, t.broken)
	}
	return err
}

// Insert stores v under a fresh auto-increment id and returns the id.
func (t *Table) Insert(v any) (int64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("filedb: marshal: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	if err := t.appendRecord(record{Op: "put", ID: id, Data: data}); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertMany stores n records under consecutive fresh ids in one
// contiguous write — the append-only-log analog of a single
// transaction. value is called with each slot index and the id that
// slot will receive, so callers can embed the final id in the stored
// payload (no follow-up Update records). The batch is laid out
// front-to-back in one Write. A failed write stores none of it; a
// crash mid-write leaves a torn tail that replay truncates, so the
// surviving records are always a contiguous id-prefix of the batch.
func (t *Table) InsertMany(n int, value func(i int, id int64) (any, error)) ([]int64, error) {
	if n <= 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int64, n)
	recs := make([]record, n)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		id := t.nextID + int64(i)
		v, err := value(i, id)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("filedb: marshal: %w", err)
		}
		rec := record{Op: "put", ID: id, Data: data}
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("filedb: %w", err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		buf.Write(hdr[:])
		buf.Write(payload)
		ids[i], recs[i] = id, rec
	}
	if err := t.write(buf.Bytes(), recs); err != nil {
		return nil, err
	}
	return ids, nil
}

// Update replaces the record stored under id.
func (t *Table) Update(id int64, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("filedb: marshal: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index[id]; !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return t.appendRecord(record{Op: "put", ID: id, Data: data})
}

// Get unmarshals the record stored under id into v.
func (t *Table) Get(id int64, v any) error {
	t.mu.Lock()
	rec, ok := t.index[id]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if err := json.Unmarshal(rec.Data, v); err != nil {
		return fmt.Errorf("filedb: unmarshal id %d: %w", id, err)
	}
	return nil
}

// Len returns the number of live records.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.index)
}

// Version returns the number of records put into the index since the
// table opened, replayed ones included: it changes with every change
// to what Each reads. A reader caching decoded rows takes the version
// before Each, so a put racing the read can only make the cache look
// older than it is.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Each calls fn for every live record in ascending id order, stopping
// early if fn returns false. fn receives the raw JSON; callers
// unmarshal into their own types.
func (t *Table) Each(fn func(id int64, data json.RawMessage) bool) {
	t.mu.Lock()
	type pair struct {
		id   int64
		data json.RawMessage
	}
	rows := make([]pair, 0, len(t.index))
	for id, rec := range t.index {
		rows = append(rows, pair{id, rec.Data})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		if !fn(r.id, r.data) {
			return
		}
	}
}

func (t *Table) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
