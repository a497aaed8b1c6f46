// Package blob is Chronus's File Repository integration interface
// (paper §3.2): byte storage for serialised optimizer models. The
// paper ships a local-disk implementation ("a folder called
// ./optimizers") and notes NFS/SMB/S3 as drop-in alternatives; we
// provide the local-disk store plus an in-memory store for tests and
// for simulating a remote blob service.
package blob

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is the File Repository interface.
type Store interface {
	// Put stores data under key, overwriting any previous value.
	Put(key string, data []byte) error
	// Get returns the data stored under key.
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting a missing key is an error.
	Delete(key string) error
	// List returns all keys in lexical order.
	List() ([]string, error)
	// Exists reports whether key is present.
	Exists(key string) bool
}

// ErrNotFound is returned by Get and Delete for missing keys.
var ErrNotFound = fmt.Errorf("blob: key not found")

// ValidateKey rejects empty keys and path traversal. Keys may use "/"
// as a separator.
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("blob: empty key")
	}
	if strings.HasPrefix(key, "/") || strings.Contains(key, "..") || strings.Contains(key, "\\") {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	return nil
}

// Dir is the local-disk store: each key is a file under the root
// directory. Writes are atomic (temp file + rename).
type Dir struct {
	root string
}

// NewDir creates (if needed) and opens a directory store.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return &Dir{root: root}, nil
}

// Root returns the backing directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) path(key string) string { return filepath.Join(d.root, filepath.FromSlash(key)) }

// Put implements Store.
func (d *Dir) Put(key string, data []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	p := d.path(key)
	tmp := p + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		// The first blob of its directory, or the directory went away
		// underneath: only then pay for MkdirAll, not on every put.
		if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			err = os.WriteFile(tmp, data, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

// Get implements Store.
func (d *Dir) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return data, nil
}

// Delete implements Store.
func (d *Dir) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	err := os.Remove(d.path(key))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

// List implements Store.
func (d *Dir) List() ([]string, error) {
	var keys []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		keys = append(keys, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Exists implements Store.
func (d *Dir) Exists(key string) bool {
	if ValidateKey(key) != nil {
		return false
	}
	_, err := os.Stat(d.path(key))
	return err == nil
}

// Memory is an in-memory store, used in tests and to stand in for a
// remote service (S3 bucket, NFS share) in simulations.
type Memory struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{data: make(map[string][]byte)} }

// Put implements Store.
func (m *Memory) Put(key string, data []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	m.data[key] = cp
	return nil
}

// Get implements Store.
func (m *Memory) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(m.data, key)
	return nil
}

// List implements Store.
func (m *Memory) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Exists implements Store.
func (m *Memory) Exists(key string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[key]
	return ok
}

// Latent wraps a Store with a fixed simulated access latency,
// modelling the remote blob services the paper lists as alternatives
// (NFS, SMB, an S3 bucket). The latency is returned to the caller
// through LastLatency rather than slept, so simulations stay fast; the
// A2 preload ablation is the consumer.
type Latent struct {
	Store
	Latency time.Duration

	mu   sync.Mutex
	last time.Duration
	ops  int
}

// NewLatent wraps a store with a per-operation latency.
func NewLatent(s Store, latency time.Duration) *Latent {
	return &Latent{Store: s, Latency: latency}
}

func (l *Latent) charge() {
	l.mu.Lock()
	l.last = l.Latency
	l.ops++
	l.mu.Unlock()
}

// Get implements Store, charging one latency unit.
func (l *Latent) Get(key string) ([]byte, error) {
	l.charge()
	return l.Store.Get(key)
}

// Put implements Store, charging one latency unit.
func (l *Latent) Put(key string, data []byte) error {
	l.charge()
	return l.Store.Put(key, data)
}

// LastLatency returns the simulated cost of the most recent operation.
func (l *Latent) LastLatency() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Ops returns how many charged operations have run.
func (l *Latent) Ops() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}
