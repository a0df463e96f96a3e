package search

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Cache snapshots make the memoized search results survive a process
// restart: SaveTo serializes every completed, successful entry and
// LoadFrom warms a (typically fresh) cache from such a snapshot. The
// daemon cmd/flexerd wires these to its -cache-file flag so a restart
// keeps its warm set instead of recomputing hours of search work.
//
// The format is a gob stream — a versioned header, an entry count,
// then one record per entry. gob needs no schema beside the Go types,
// writes the schedules' integer records compactly, and skips stream
// fields the receiving type lacks, so dropping a field (as PR 18 did
// with sched.KindStats' per-tile movement counts, the struct-keyed map
// that once ruled out encoding/json) does not orphan older snapshots.
// Nothing in a LayerResult is a map any more, so a snapshot is a
// deterministic function of the cache's contents. In-flight and failed entries are
// never persisted: the former are incomplete, and the latter may be
// transient (a deadline hit) rather than a property of the key. Nor are
// network memos (SetNetworkMemo), which hold no result.

// snapshotMagic guards against feeding an arbitrary gob stream (or a
// non-snapshot file) to LoadFrom.
const snapshotMagic = "flexer-cache-snapshot"

// snapshotVersion is bumped whenever CacheKey's format or LayerResult's
// wire shape changes incompatibly; LoadFrom rejects other versions so a
// stale snapshot degrades to a cold start instead of corrupt hits.
const snapshotVersion = 3

// ErrSnapshotVersion marks a snapshot whose version does not match
// this binary's. Callers (flexerd's boot path, cluster warm-up) match
// it with errors.Is and degrade to a cold start instead of treating a
// routine rolling-upgrade artifact as a fatal or unknown failure.
var ErrSnapshotVersion = errors.New("cache snapshot version mismatch")

// snapshotHeader opens every snapshot stream.
type snapshotHeader struct {
	Magic   string
	Version int
}

// snapshotEntry is one persisted cache entry.
type snapshotEntry struct {
	Key    string
	Result LayerResult
}

// SaveTo writes a snapshot of every completed, successful entry to w
// and returns the number of entries written. Concurrent lookups may
// proceed while saving: entry pointers are collected under the cache's
// lock, and completed results are immutable thereafter.
func (c *Cache) SaveTo(w io.Writer) (int, error) {
	return c.SaveShardTo(w, nil)
}

// SaveShardTo writes a snapshot of the completed, successful entries
// whose key keep accepts (nil = all, i.e. SaveTo). The cluster layer
// uses it to export exactly one peer's home shard — keys whose ring
// home is the requesting peer — so a rejoining node warms up with its
// own keys instead of a full copy of someone else's cache.
func (c *Cache) SaveShardTo(w io.Writer, keep func(key string) bool) (int, error) {
	entries := c.snapshotEntries()
	if keep != nil {
		kept := entries[:0]
		for _, e := range entries {
			if keep(e.key) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snapshotHeader{Magic: snapshotMagic, Version: snapshotVersion}); err != nil {
		return 0, fmt.Errorf("cache: write snapshot header: %w", err)
	}
	if err := enc.Encode(len(entries)); err != nil {
		return 0, fmt.Errorf("cache: write snapshot count: %w", err)
	}
	for i, e := range entries {
		if err := enc.Encode(snapshotEntry{Key: e.key, Result: *e.lr}); err != nil {
			return i, fmt.Errorf("cache: write snapshot entry %d: %w", i, err)
		}
	}
	return len(entries), nil
}

// snapshotEntries collects the persistable entries, least recently
// used first, so that replaying them through LoadFrom's PushFront
// reconstructs the cache's LRU order.
func (c *Cache) snapshotEntries() []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var entries []*cacheEntry
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry); e.err == nil && e.lr != nil {
			entries = append(entries, e)
		}
	}
	return entries
}

// LoadFrom warms the cache from a snapshot previously written by
// SaveTo, returning how many entries were installed. Keys already
// present (in-flight or completed) are left untouched; entries beyond
// the cache's capacity are evicted as usual. A snapshot from a
// different version is rejected whole so the caller can start cold.
func (c *Cache) LoadFrom(r io.Reader) (int, error) {
	dec := gob.NewDecoder(r)
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		return 0, fmt.Errorf("cache: read snapshot header: %w", err)
	}
	if h.Magic != snapshotMagic {
		return 0, fmt.Errorf("cache: not a cache snapshot (magic %q)", h.Magic)
	}
	if h.Version != snapshotVersion {
		return 0, fmt.Errorf("cache: snapshot version %d, want %d: %w", h.Version, snapshotVersion, ErrSnapshotVersion)
	}
	var n int
	if err := dec.Decode(&n); err != nil {
		return 0, fmt.Errorf("cache: read snapshot count: %w", err)
	}
	loaded := 0
	for i := 0; i < n; i++ {
		var e snapshotEntry
		if err := dec.Decode(&e); err != nil {
			return loaded, fmt.Errorf("cache: read snapshot entry %d of %d: %w", i, n, err)
		}
		lr := e.Result
		if c.insertCompleted(&cacheEntry{key: e.Key, lr: &lr}) {
			loaded++
		}
	}
	return loaded, nil
}

// insertCompleted installs e, an already-computed entry, under its key,
// reporting false when the key is already present.
func (c *Cache) insertCompleted(e *cacheEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[e.key]; ok {
		return false
	}
	e.done = make(chan struct{})
	close(e.done)
	c.m[e.key] = e
	c.complete(e)
	return true
}
