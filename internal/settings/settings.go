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

// FindModel returns the pre-loaded model for a system, if any.
func (s *Settings) FindModel(systemID int64) (LocalModel, bool) {
	for _, m := range s.LocalModels {
		if m.SystemID == systemID {
			return m, true
		}
	}
	return LocalModel{}, false
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
// application" (§3.2).
func (s *Settings) SetModel(m LocalModel) {
	for i := range s.LocalModels {
		if s.LocalModels[i].SystemID == m.SystemID && s.LocalModels[i].AppHash == m.AppHash {
			s.LocalModels[i] = m
			return
		}
	}
	s.LocalModels = append(s.LocalModels, m)
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
// Every Load reads the file, so a change made by another process (an
// admin's `chronus set state`) or a torn file is seen on the very next
// call; the JSON is decoded again only when the bytes read differ from
// the last ones that decoded successfully.
type EtcStore struct {
	mu   sync.Mutex
	path string

	decodedFrom []byte   // file contents that produced decoded
	decoded     Settings // never handed out: Load returns a copy
}

// NewEtcStore returns a store at path.
func NewEtcStore(path string) *EtcStore { return &EtcStore{path: path} }

// Path returns the settings file location.
func (e *EtcStore) Path() string { return e.path }

// Load implements Store.
func (e *EtcStore) Load() (Settings, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	data, err := os.ReadFile(e.path)
	if os.IsNotExist(err) {
		return Defaults(), nil
	}
	if err != nil {
		return Settings{}, fmt.Errorf("settings: %w", err)
	}
	if e.decodedFrom == nil || !bytes.Equal(data, e.decodedFrom) {
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
		e.decodedFrom, e.decoded = data, s
	}
	s := e.decoded
	s.LocalModels = slices.Clone(s.LocalModels) // the caller may SetModel on it
	return s, nil
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
