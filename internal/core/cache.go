package core

import (
	"sync"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/perfmodel"
)

// cacheKey identifies a model by the pair of hashes the plugin submits
// and the id of the model its settings name for them (0: none named).
type cacheKey struct {
	systemHash string
	binaryHash string
	modelID    int64
}

// cacheEntry is one model's precomputed best configuration; the
// decoded model is not kept once swept. Entries double as singleflight
// slots: a loader publishes the entry with done still open, fills it,
// then closes done; waiters block on done instead of re-reading and
// re-decoding the same model concurrently.
type cacheEntry struct {
	done chan struct{}

	// Valid once done is closed.
	best    perfmodel.Config
	latency time.Duration // what the loading path cost, for waiters
	source  ecoplugin.PredictSource
	err     error
}

// modelCache keeps each model's best configuration keyed by
// (systemHash, binaryHash, modelID) so repeated submissions of the same
// application skip the file read, the JSON decode and the optimizer
// sweep entirely. A cache hit costs only LatencyLocalRead (the settings
// check the real CLI cannot avoid).
type modelCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

func newModelCache() *modelCache {
	return &modelCache{entries: make(map[cacheKey]*cacheEntry)}
}

// peek returns the entry only if a load already completed
// successfully — the pure hit path, no blocking.
func (c *modelCache) peek(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e, true
	default:
		return nil, false
	}
}

// lookup returns the entry for key and whether the caller is the
// loader. The loader must call finish exactly once; everyone else
// waits on entry.done.
func (c *modelCache) lookup(key cacheKey) (entry *cacheEntry, isLoader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// finish publishes the loader's result. A failed load, or one keep
// refuses, is evicted so a later call retries, unless dropUnnamed has
// already let a new loader replace the slot.
func (c *modelCache) finish(key cacheKey, e *cacheEntry, best perfmodel.Config, latency time.Duration, source ecoplugin.PredictSource, err error, keep bool) {
	e.best, e.latency, e.source, e.err = best, latency, source, err
	close(e.done)
	if err != nil || !keep {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
}

// dropUnnamed drops the pair's entry for requests naming no model,
// which answers for whatever model the settings named at its load:
// `chronus load-model` calls it on install.
func (c *modelCache) dropUnnamed(systemHash, binaryHash string) {
	c.mu.Lock()
	delete(c.entries, cacheKey{systemHash, binaryHash, 0})
	c.mu.Unlock()
}

// size reports the number of cached slots (including in-flight loads).
func (c *modelCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
