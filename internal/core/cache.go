package core

import (
	"sync"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/optimizer"
	"ecosched/internal/perfmodel"
)

// cacheKey identifies a decoded model by the pair of hashes the plugin
// submits with every prediction.
type cacheKey struct {
	systemHash string
	binaryHash string
}

// cacheEntry is one decoded model plus its precomputed best
// configuration. Entries double as singleflight slots: a loader
// publishes the entry with done still open, fills it, then closes
// done; waiters block on done instead of re-reading and re-decoding
// the same model concurrently.
type cacheEntry struct {
	done chan struct{}

	// Valid once done is closed.
	best    perfmodel.Config
	opt     optimizer.Optimizer
	latency time.Duration // what the loading path cost, for waiters
	source  ecoplugin.PredictSource
	err     error
}

// modelCache keeps decoded optimizers keyed by (systemHash,
// binaryHash) so repeated submissions of the same application skip the
// file read, the JSON decode and the optimizer sweep entirely. A cache
// hit costs only LatencyLocalRead (the settings check the real CLI
// cannot avoid).
type modelCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

func newModelCache() *modelCache {
	return &modelCache{entries: make(map[cacheKey]*cacheEntry)}
}

// peek returns the entry only if a load already completed
// successfully — the pure hit path, no blocking. A nil cache never
// hits.
func (c *modelCache) peek(key cacheKey) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
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
	if c == nil {
		// Uncached service: every call loads for itself.
		return &cacheEntry{done: make(chan struct{})}, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// finish publishes the loader's result. Failed loads are evicted so a
// later call retries (guarded: only if the slot still holds this
// entry — an invalidation may have raced and replaced it).
func (c *modelCache) finish(key cacheKey, e *cacheEntry, best perfmodel.Config, opt optimizer.Optimizer, latency time.Duration, source ecoplugin.PredictSource, err error) {
	e.best, e.opt, e.latency, e.source, e.err = best, opt, latency, source, err
	close(e.done)
	if c == nil {
		return
	}
	if err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
}

// invalidate drops the entry for one (system, application) pair —
// called when `chronus load-model` installs a new model for it.
func (c *modelCache) invalidate(systemHash, binaryHash string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.entries, cacheKey{systemHash, binaryHash})
	c.mu.Unlock()
}

// invalidateAll empties the cache — called on settings changes, whose
// effect on prediction (state, model registry) is not per-key.
func (c *modelCache) invalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[cacheKey]*cacheEntry)
	c.mu.Unlock()
}

// size reports the number of cached slots (including in-flight loads).
func (c *modelCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
