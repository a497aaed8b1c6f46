// Package settings is Chronus's Local Storage integration interface
// (paper §3.2): the persistent plugin configuration the paper keeps in
// /etc/chronus/settings.json — database path, blob-storage path,
// plugin state, and the registry of models pre-loaded onto the head
// node's local disk (§3.1.2 "add model to local settings").
package settings

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
)

// State is the plugin activation state, set with `chronus set state`:
// "activates, sets it to user or deactivates the plugin" (§3.3).
type State string

// Plugin states. In StateUser the plugin only rewrites jobs that opt
// in with `#SBATCH --comment "chronus"`; in StateActive it rewrites
// every job; StateDeactivated disables it cluster-wide.
const (
	StateActive      State = "active"
	StateUser        State = "user"
	StateDeactivated State = "deactivated"
)

// Valid reports whether s is a known state.
func (s State) Valid() bool {
	switch s {
	case StateActive, StateUser, StateDeactivated:
		return true
	}
	return false
}

// LocalModel is one pre-loaded model: where slurm-config can read it
// without touching the database or blob storage (the submit-time
// latency budget, §3.1.2).
type LocalModel struct {
	ModelID  int64 `json:"model_id"`
	SystemID int64 `json:"system_id"`
	// SystemHash is the plugin-visible identifier (simple_hash of
	// /proc/cpuinfo + /proc/meminfo); slurm-config looks models up by
	// it without touching the database.
	SystemHash string `json:"system_hash"`
	AppHash    string `json:"app_hash"`
	Optimizer  string `json:"optimizer"`
	Path       string `json:"path"`
}

// Settings mirrors /etc/chronus/settings.json.
type Settings struct {
	DatabasePath    string       `json:"database"`
	BlobStoragePath string       `json:"blob_storage"`
	State           State        `json:"state"`
	LocalModels     []LocalModel `json:"local_models,omitempty"`
}

// Defaults returns a fresh configuration in user (opt-in) mode.
func Defaults() Settings {
	return Settings{State: StateUser}
}

// FindModelByHash returns the pre-loaded model for a plugin-visible
// (system, application) hash pair — the lookup slurm-config performs
// at submit time. An empty appHash matches any application (the
// paper's single-application behaviour).
func (s *Settings) FindModelByHash(systemHash, appHash string) (LocalModel, bool) {
	for _, m := range s.LocalModels {
		if m.SystemHash == systemHash && (appHash == "" || m.AppHash == appHash) {
			return m, true
		}
	}
	return LocalModel{}, false
}

// SetModel registers a pre-loaded model, replacing any previous model
// for the same (system, application) pair — one model per application,
// as "the best energy efficiency configuration changes for each
// application" (§3.2). It copies on write: a loaded Settings shares its
// LocalModels with the store that loaded it, so the list it was given
// is never written.
func (s *Settings) SetModel(m LocalModel) {
	i := slices.IndexFunc(s.LocalModels, func(old LocalModel) bool {
		return old.SystemID == m.SystemID && old.AppHash == m.AppHash
	})
	if i < 0 {
		s.LocalModels = append(slices.Clip(s.LocalModels), m)
		return
	}
	s.LocalModels = slices.Clone(s.LocalModels)
	s.LocalModels[i] = m
}

// Store is the Local Storage interface the application layer uses.
type Store interface {
	Load() (Settings, error)
	Save(Settings) error
}

// EtcStore persists settings as JSON at a file path (the paper's
// /etc/chronus/settings.json). Writes are atomic. A missing file loads
// as Defaults, matching first-run behaviour.
//
// Load asks whether the file changed and reads whenever it may have, so
// a change made by another process (an admin's `chronus set state`) or
// a torn file is seen on the very next call. While an inotify watch
// (watcher) reports that nothing on the path moved since the last read,
// Load answers from that read; the JSON is decoded again only when the
// bytes read differ from the last ones that decoded successfully.
// Close releases the watch.
type EtcStore struct {
	mu   sync.Mutex
	path string

	buf         []byte   // the last read; reused by the next, only grows
	decodedFrom []byte   // a copy of the file contents that produced decoded
	decoded     Settings // LocalModels is shared with every Load: read-only

	watch    watcher
	fresh    bool // the last read began with the watch armed and returned decodedFrom
	readBack bool // a read has returned decodedFrom again: the watch has been tried
}

// NewEtcStore returns a store at path.
func NewEtcStore(path string) *EtcStore { return &EtcStore{path: path} }

// Load implements Store. The returned LocalModels is the store's own
// list, clipped: read it, or change it through SetModel, which copies.
//
// The watch arms on the first Load that reads back the bytes it last
// decoded, after that read, so a store loaded once never arms. A read
// counts towards freshness only if the watch was armed before it began.
func (e *EtcStore) Load() (Settings, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fresh && e.watch.quiet() {
		return e.last(), nil
	}
	counts := e.watch.settle(e.path)
	e.fresh = false
	data, err := e.read()
	if os.IsNotExist(err) {
		return Defaults(), nil
	}
	if err != nil {
		return Settings{}, fmt.Errorf("settings: %w", err)
	}
	if e.decodedFrom != nil && bytes.Equal(data, e.decodedFrom) {
		if !counts && !e.readBack {
			e.watch.arm(e.path)
		}
		e.readBack = true
	} else {
		var s Settings
		if err := json.Unmarshal(data, &s); err != nil {
			return Settings{}, fmt.Errorf("settings: parse %s: %w", e.path, err)
		}
		if s.State == "" {
			s.State = StateUser
		}
		if !s.State.Valid() {
			return Settings{}, fmt.Errorf("settings: invalid state %q in %s", s.State, e.path)
		}
		e.decodedFrom, e.decoded, e.readBack = append(e.decodedFrom[:0], data...), s, false
	}
	e.fresh = counts
	return e.last(), nil
}

// last is the last decoded value, as Load returns it.
func (e *EtcStore) last() Settings {
	s := e.decoded
	s.LocalModels = slices.Clip(s.LocalModels)
	return s
}

// Close releases the store's inotify watch. A closed store still
// loads and saves; it reads the file on every Load.
func (e *EtcStore) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fresh = false
	if err := e.watch.close(); err != nil {
		return fmt.Errorf("settings: %w", err)
	}
	return nil
}

// initialReadSize is the read buffer's first capacity; a settings file
// with a handful of models fits.
const initialReadSize = 2048

// read reads the whole file into e.buf, which it returns. It is
// os.ReadFile without the *os.File: on a regular file os.Open also pays
// an fcntl, a poller registration and a finalizer on every call. Errors
// are *os.PathError with op "open" or "read", as os.ReadFile's are, and
// EINTR is retried as os retries it.
func (e *EtcStore) read() ([]byte, error) {
	fd, err := syscall.Open(e.path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(e.path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: e.path, Err: err}
	}
	defer syscall.Close(fd)
	data := e.buf[:0]
	for {
		if len(data) == cap(data) {
			data = slices.Grow(data, max(initialReadSize, len(data)))
			e.buf = data
		}
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "read", Path: e.path, Err: err}
		}
		if n == 0 {
			return data, nil
		}
		data = data[:len(data)+n]
	}
}

// Save implements Store.
func (e *EtcStore) Save(s Settings) error {
	if !s.State.Valid() {
		return fmt.Errorf("settings: invalid state %q", s.State)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(e.path), 0o755); err != nil {
		return fmt.Errorf("settings: %w", err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("settings: %w", err)
	}
	tmp := e.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("settings: %w", err)
	}
	if err := os.Rename(tmp, e.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("settings: %w", err)
	}
	return nil
}

// MemStore is an in-memory Store for tests.
type MemStore struct {
	mu sync.Mutex
	s  Settings
	ok bool
}

// NewMemStore returns a store holding Defaults.
func NewMemStore() *MemStore { return &MemStore{} }

// Load implements Store.
func (m *MemStore) Load() (Settings, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ok {
		return Defaults(), nil
	}
	return m.s, nil
}

// Save implements Store.
func (m *MemStore) Save(s Settings) error {
	if !s.State.Valid() {
		return fmt.Errorf("settings: invalid state %q", s.State)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.s, m.ok = s, true
	return nil
}
