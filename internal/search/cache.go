package search

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
)

// Cache memoizes layer search results by layer shape (ignoring the
// layer name), hardware configuration and search options. Networks
// such as ResNet-50 repeat the same convolution shape many times; the
// cache collapses those to one search each, the "memory function" the
// paper suggests to tame the scheduler's runtime.
//
// The cache is sharded to keep lock contention off the search hot
// path, optionally bounded (per-shard LRU eviction of completed
// entries), and safe for concurrent use. Concurrent lookups of the
// same key are coalesced (singleflight): the first caller computes,
// the others attach to the in-flight search and share its result (or
// bail out when their own context is cancelled, without disturbing
// the leader). Hit, miss, coalesced and eviction counters are
// exported through Stats for observability layers such as
// internal/serve; hits and coalesced hits are disjoint, so the
// counters distinguish "served from a completed entry" from "attached
// to a search another caller was already running".
type Cache struct {
	shards   []cacheShard
	capacity int // max completed entries per shard; 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// cacheShard is one independently locked slice of the key space.
type cacheShard struct {
	mu  sync.Mutex
	m   map[string]*cacheEntry
	lru *list.List // completed entries, front = most recently used
}

// cacheEntry is one memoized (possibly still in-flight) layer search.
type cacheEntry struct {
	key  string
	done chan struct{} // closed when lr/err are valid
	lr   *LayerResult
	err  error
	// cancelled marks a search aborted by its caller's context rather
	// than failed; waiters with live contexts retry instead of
	// inheriting the cancellation.
	cancelled bool
	elem      *list.Element // LRU position once completed, nil while in flight
}

// cacheShards is the fixed shard count. Sixteen shards keep the map
// mutexes uncontended even when every GOMAXPROCS worker finishes a
// layer at once, at a negligible fixed memory cost.
const cacheShards = 16

// DefaultCacheCapacity bounds NewCache: ResNet-50 has 53 distinct conv
// shapes, so 4096 distinct (shape, arch, options) results is far beyond
// any single-process experiment while still bounding a long-running
// daemon fed adversarial shapes.
const DefaultCacheCapacity = 4096

// NewCache returns an empty cache bounded to DefaultCacheCapacity
// entries.
func NewCache() *Cache { return NewCacheSized(DefaultCacheCapacity) }

// NewCacheSized returns an empty cache holding at most capacity
// completed results; least-recently-used entries are evicted beyond
// that. capacity <= 0 means unbounded.
func NewCacheSized(capacity int) *Cache {
	c := &Cache{shards: make([]cacheShard, cacheShards)}
	if capacity > 0 {
		// Distribute the budget across shards, rounding up so the
		// total is never below the requested capacity.
		c.capacity = (capacity + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
		c.shards[i].lru = list.New()
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from a completed entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to run the search.
	Misses int64 `json:"misses"`
	// CoalescedHits counts lookups that attached to another caller's
	// in-flight search instead of running their own; disjoint from
	// Hits. A retrying waiter (its leader was cancelled) may account
	// more than one coalesced hit.
	CoalescedHits int64 `json:"coalesced_hits"`
	// Evictions counts completed entries discarded to stay in bounds.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of entries, including in-flight.
	Entries int `json:"entries"`
}

// HitRatio returns the fraction of lookups that avoided a search —
// (Hits + CoalescedHits) / all lookups — or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	avoided := s.Hits + s.CoalescedHits
	total := avoided + s.Misses
	if total == 0 {
		return 0
	}
	return float64(avoided) / float64(total)
}

// Stats returns a snapshot of the hit/miss/coalesced/eviction counters
// and entry count.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		CoalescedHits: c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       c.Len(),
	}
}

// Len returns the number of distinct entries (including in-flight).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// shard maps a key to its shard by FNV-1a hash.
func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// layer returns the memoized result for l under opts, computing it at
// most once per key. A context cancellation while waiting on another
// caller's in-flight search returns ctx.Err() without disturbing the
// entry; a cancellation of the computing caller removes the entry so a
// later request retries.
func (c *Cache) layer(ctx context.Context, l layer.Conv, opts Options) (*LayerResult, error) {
	key := cacheKey(l, opts)
	s := c.shard(key)

	for {
		s.mu.Lock()
		e, ok := s.m[key]
		if !ok {
			e = &cacheEntry{key: key, done: make(chan struct{})}
			s.m[key] = e
			s.mu.Unlock()
			c.misses.Add(1)
			if opts.CacheMisses != nil {
				opts.CacheMisses.Add(1)
			}

			e.lr, e.err = searchLayerUncached(ctx, l, opts)

			s.mu.Lock()
			if isCancellation(e.err) {
				// The search was cancelled, not infeasible: forget the
				// entry so a later caller with a live context
				// recomputes. A genuine search failure that merely
				// raced past its deadline stays cached, so waiters
				// inherit the verdict instead of recomputing it.
				e.cancelled = true
				delete(s.m, key)
			} else {
				s.complete(c, e)
			}
			close(e.done)
			s.mu.Unlock()
			return finishLookup(e, l)
		}
		// A completed entry (success or cached failure) has an LRU
		// position; an entry without one is still in flight, so this
		// lookup coalesces onto the leader's search. Cancelled entries
		// are deleted under the lock before their done channel closes,
		// so they can never be found here.
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
			s.mu.Unlock()
			c.hits.Add(1)
			if opts.Progress != nil {
				opts.Progress(ProgressEvent{Layer: l.Name, CacheHit: true})
			}
		} else {
			s.mu.Unlock()
			c.coalesced.Add(1)
			if opts.Progress != nil {
				opts.Progress(ProgressEvent{Layer: l.Name, Coalesced: true})
			}
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.cancelled {
			// The computing caller was cancelled; run the search
			// ourselves (unless we were cancelled too).
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		return finishLookup(e, l)
	}
}

// isCancellation reports whether err is the caller's context ending or
// a check-in yield (preemption), as opposed to a real search failure
// (infeasible layer, invalid shape). Only the former may forget a
// cache entry: a preempted leader's waiters then retry as new leaders,
// so a requeued search recomputes instead of inheriting the abort.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrYield)
}

// finishLookup unwraps a completed entry for one caller, shallow-copying
// the result so each caller sees its own layer name.
func finishLookup(e *cacheEntry, l layer.Conv) (*LayerResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	lr := *e.lr
	lr.Layer = l
	return &lr, nil
}

// complete moves a finished entry onto the LRU list and evicts beyond
// capacity. Caller holds s.mu. In-flight entries are never evicted:
// they are not on the LRU list until completed.
func (s *cacheShard) complete(c *Cache, e *cacheEntry) {
	e.elem = s.lru.PushFront(e)
	for c.capacity > 0 && s.lru.Len() > c.capacity {
		oldest := s.lru.Back()
		victim := oldest.Value.(*cacheEntry)
		s.lru.Remove(oldest)
		delete(s.m, victim.key)
		c.evictions.Add(1)
	}
}

// cacheKey fingerprints everything that affects a layer search result
// except the layer's name. Every result-relevant Options field must
// participate — metric, budget (including the identity of each
// baseline dataflow, not just their count), arch, priority, memory
// policy and the ablation switches (TestCacheKeyCoversOptions walks
// the field list) — so two requests differing in any
// of them are never coalesced onto one search. FuseDepth participates
// too: layer results themselves are fusion-independent today, but
// keeping the keys disjoint guarantees a fused network request can
// never serve stale entries to (or poison) a layerwise one. Fields that
// cannot change the result (Workers, Cache, CacheMisses, Progress,
// CheckIn) are deliberately excluded so requests differing only in
// plumbing share one search.
func cacheKey(l layer.Conv, opts Options) string {
	shape := l
	shape.Name = ""
	return fmt.Sprintf("%+v|%s", shape, optionsKey(opts))
}

// optionsKey is the options half of the fingerprint, shared between
// per-layer cache keys and whole-network routing keys.
func optionsKey(opts Options) string {
	b := opts.Budget
	return fmt.Sprintf("%s/%d/%d/%d%s|%v|%v|%d|%s|%v%v%v%v|%d:%d:%d:%d:%d|f%d|%s",
		opts.Arch.Name, opts.Arch.Cores, opts.Arch.SPMBytes, opts.Arch.BandwidthBytesPerCycle, peKey(opts.Arch),
		opts.Metric, opts.Priority, opts.MemPolicy, dataflowsKey(b.Dataflows),
		opts.DisableInPlace, opts.DisablePruning, opts.DisableDominance, b.HintedOoO,
		b.MaxTilings, b.MaxOps, b.MaxValuesPerDim, b.MaxReadyWindow, b.MaxCandidateSets,
		opts.FuseDepth,
		faultKey(opts.FaultPlan))
}

// peKey fingerprints the PE-array geometry, which sets op cycles. The
// default geometry maps to "" so that every key minted before geometry
// was fingerprinted — snapshots, ring homes — keeps its bytes.
func peKey(a arch.Config) string {
	if a.PERows == arch.DefaultPERows && a.PECols == arch.DefaultPECols {
		return ""
	}
	return fmt.Sprintf("/pe%dx%d", a.PERows, a.PECols)
}

// CacheKey exposes the cache fingerprint of one layer search. The
// cluster layer routes layer requests and filters snapshot shards by
// this key, so every node assigns the same home peer to the same
// search and the single-search-per-key coalescing invariant holds
// cluster-wide.
func CacheKey(l layer.Conv, opts Options) string { return cacheKey(l, opts) }

// NetworkKey fingerprints a whole-network schedule request (network
// name, spatial scale and every result-relevant option) for cluster
// routing. Identical network sweeps route to one home peer and
// coalesce there; the per-layer cache entries the sweep creates still
// carry their own CacheKey homes for snapshot sharding.
func NetworkKey(network string, scale int, opts Options) string {
	if scale <= 0 {
		scale = 1
	}
	return fmt.Sprintf("net|%s|x%d|%s", network, scale, optionsKey(opts))
}

// faultKey fingerprints the fault plan for the cache key: results with
// and without degraded-mode evaluation — or under different plans —
// must not share an entry. Empty and nil plans collapse to "".
func faultKey(p *fault.Plan) string {
	if p.Empty() {
		return ""
	}
	return p.String()
}

// dataflowsKey fingerprints the baseline dataflow set by the name and
// permutation of every entry. A nil set means loop.Canonical() at
// search time, so it maps to the same key as the explicit canonical
// list; previously only the length participated, which coalesced
// different same-length sets onto one cached result.
func dataflowsKey(dfs []loop.Dataflow) string {
	if dfs == nil {
		dfs = loop.Canonical()
	}
	var sb strings.Builder
	for i, df := range dfs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(df.String())
	}
	return sb.String()
}
