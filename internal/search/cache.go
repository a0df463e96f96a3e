package search

import (
	"container/list"
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
)

// Cache memoizes layer search results by layer shape (ignoring the
// layer name), hardware configuration and search options. Networks
// such as ResNet-50 repeat the same convolution shape many times; the
// cache collapses those to one search each, the "memory function" the
// paper suggests to tame the scheduler's runtime.
//
// The cache is one map and one LRU list under one lock, optionally
// bounded (least-recently-used eviction of completed entries), and
// safe for concurrent use. Concurrent lookups of the same key are
// coalesced (singleflight): the first caller computes, the others
// attach to the in-flight search and share its result (or bail out
// when their own context is cancelled, without disturbing the leader).
// Hit, miss, coalesced and eviction counters are exported through
// Stats for observability layers such as internal/serve; hits and
// coalesced hits are disjoint, so the counters distinguish "served
// from a completed entry" from "attached to a search another caller
// was already running".
type Cache struct {
	mu       sync.Mutex
	m        map[string]*cacheEntry
	lru      *list.List // completed entries, front = most recently used
	capacity int        // max completed entries; 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one memoized (possibly still in-flight) layer search,
// or a network memo, which has no lr.
type cacheEntry struct {
	key  string
	done chan struct{} // closed when lr/err are valid
	lr   *LayerResult
	err  error
	// cancelled marks a search aborted by its caller's context (or by a
	// panic) rather than failed; waiters with live contexts retry instead
	// of inheriting the cancellation.
	cancelled bool
	elem      *list.Element // LRU position once completed, nil while in flight
	// memo backs LayerResult.Memo, or holds the network memo: freed with
	// the entry, in no snapshot.
	memo atomic.Pointer[[]byte]
}

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
	return &Cache{m: make(map[string]*cacheEntry), lru: list.New(), capacity: max(capacity, 0)}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Layer returns the memoized result for l under opts, computing it at
// most once per key. It exists for internal/serve, which has the key
// from routing the request: key is trusted to be CacheKey(l, opts) and
// l to be valid, unchecked (TestJobKeyIsCacheKey holds serve to it);
// everyone else calls SearchLayerCtx. An error may be another caller's,
// so it names neither layer nor arch. A context cancellation while
// waiting on another caller's in-flight search returns ctx.Err()
// without disturbing the entry; a cancellation of the computing caller
// removes the entry so a later request retries.
func (c *Cache) Layer(ctx context.Context, key string, l layer.Conv, opts Options) (*LayerResult, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &cacheEntry{key: key, done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			c.misses.Add(1)
			c.lead(ctx, e, l, opts)
			return finishLookup(e, l, true)
		}
		// A completed entry (success or cached failure) has an LRU
		// position; an entry without one is still in flight, so this
		// lookup coalesces onto the leader's search. Cancelled entries
		// are deleted under the lock before their done channel closes,
		// so they can never be found here.
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hit(l, opts.Progress)
		} else {
			c.mu.Unlock()
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
		return finishLookup(e, l, false)
	}
}

// Lookup returns key's completed result for l without waiting or
// searching: nil when key is absent, still being searched or a cached
// failure, all of which Layer handles. It exists for internal/serve,
// which answers a hit before admitting the request, and trusts key as
// Layer does. A result found is a hit, counted, reported to progress
// and moved to the front of the LRU, as in Layer.
func (c *Cache) Lookup(key string, l layer.Conv, progress ProgressFunc) *LayerResult {
	e := c.completed(key)
	if e == nil || e.lr == nil {
		return nil
	}
	c.hit(l, progress)
	lr, _ := finishLookup(e, l, false)
	return lr
}

// NetworkMemo returns the memo SetNetworkMemo stored under key, a
// NetworkKey, or nil. One found is a hit and moves the LRU, as in
// Lookup.
func (c *Cache) NetworkMemo(key string) []byte {
	e := c.completed(key)
	if e == nil || e.lr != nil {
		return nil
	}
	c.hits.Add(1)
	return *e.memo.Load()
}

// SetNetworkMemo stores b under key, a NetworkKey: internal/serve's
// response body of a whole-network search, less what each request
// names. It is an entry like a layer result, in the LRU and its bound,
// with no result and in no snapshot. The library's network search never
// writes one; an existing memo is kept. b is shared: read-only.
func (c *Cache) SetNetworkMemo(key string, b []byte) {
	e := &cacheEntry{key: key}
	e.memo.Store(&b)
	c.insertCompleted(e)
}

// completed returns key's completed, successful entry moved to the
// front of the LRU, or nil.
func (c *Cache) completed(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || e.elem == nil || e.err != nil {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e
}

// hit counts a lookup of l served from a completed entry and reports it
// to progress.
func (c *Cache) hit(l layer.Conv, progress ProgressFunc) {
	c.hits.Add(1)
	if progress != nil {
		progress(ProgressEvent{Layer: l.Name, CacheHit: true})
	}
}

// lead runs the search of e, a new entry, and completes it: a
// cancelled or panicking search forgets e so waiters retry; a failure,
// even one that raced past its deadline, stays cached for them to inherit.
func (c *Cache) lead(ctx context.Context, e *cacheEntry, l layer.Conv, opts Options) {
	e.cancelled = true // until the search returns
	defer func() {
		c.mu.Lock()
		if e.cancelled {
			delete(c.m, e.key)
		} else {
			c.complete(e)
		}
		close(e.done)
		c.mu.Unlock()
	}()
	e.lr, e.err = searchLayerWith(ctx, l, opts, scheduleTiling)
	e.cancelled = isCancellation(e.err)
}

// isCancellation reports whether err is the caller's context ending
// (a deadline, a client gone, a preempted grant), as opposed to a real
// search failure (infeasible layer, invalid shape). Only the former may
// forget a cache entry: a preempted leader's waiters then retry as new
// leaders, so a requeued search recomputes instead of inheriting the
// abort.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finishLookup unwraps a completed entry for one caller, shallow-copying
// the result so each caller sees its own layer name; searched marks the
// caller that ran the search.
func finishLookup(e *cacheEntry, l layer.Conv, searched bool) (*LayerResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	lr := *e.lr
	lr.Layer = l
	lr.memo = &e.memo
	lr.searched = searched
	return &lr, nil
}

// Memo returns what build derives from lr, kept with lr's cache entry
// and freed with it. An entry has one slot, filled by the first build
// (racing ones store equal bytes), so Memo has one user: serve's summary
// layer body. The bytes must depend on the entry alone, not on the
// caller's layer or arch name, and are shared: read-only. Outside a cache
// every call builds.
func (lr *LayerResult) Memo(build func() []byte) []byte {
	if lr.memo == nil {
		return build()
	}
	if b := lr.memo.Load(); b != nil {
		return *b
	}
	b := build()
	lr.memo.Store(&b)
	return b
}

// complete moves a finished entry onto the LRU list and evicts beyond
// capacity. Caller holds c.mu. In-flight entries are never evicted:
// they are not on the LRU list until completed.
func (c *Cache) complete(e *cacheEntry) {
	e.elem = c.lru.PushFront(e)
	for c.capacity > 0 && c.lru.Len() > c.capacity {
		victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.m, victim.key)
		c.evictions.Add(1)
	}
}

// CacheKey fingerprints what decides a layer search result: the shape
// and every result-relevant Options field, metric, budget (each
// baseline dataflow's identity, not just their count), the machine's
// numbers, priority, memory policy, ablations and fault plan
// (TestCacheKeyCoversOptions walks the field list). Requests differing
// only in what cannot change the result share one search: the plumbing
// (Workers, Cache, Progress), the layer's and the arch's names,
// and FuseDepth, whose pass runs on top of layer results (NetworkKey
// keys it). Every request builds the key, hit or miss, so it is
// appended, not formatted; key_oracle_test.go keeps the fmt form.
//
// The cluster layer routes layer requests and filters snapshot shards
// by this key, so every node assigns the same home peer to the same
// search and single-search-per-key coalescing holds cluster-wide.
func CacheKey(l layer.Conv, opts Options) string {
	var buf [512]byte
	return layerKey(l, appendOptionsKey(buf[:0], opts))
}

// layerKey joins the shape half of the fingerprint, l's String form
// without its name, to the options half.
func layerKey(l layer.Conv, optsKey []byte) string {
	var buf [512]byte // a quick-budget key is ~330 bytes: built on the stack
	l.Name = ""
	return string(append(append(l.Append(buf[:0]), '|'), optsKey...))
}

// appendInts appends vs in decimal, separated by sep.
func appendInts[T int | int64](b []byte, sep byte, vs ...T) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendOptionsKey appends the options half of the fingerprint, shared
// between per-layer cache keys and whole-network routing keys.
func appendOptionsKey(b []byte, o Options) []byte {
	a, bu, m := o.Arch, o.Budget.resolved(), o.Metric.orDefault()
	b = appendInts(b, '/', int64(a.Cores), a.SPMBytes, int64(a.BandwidthBytesPerCycle))
	b = appendInts(append(b, "/pe"...), 'x', a.PERows, a.PECols)
	b = strconv.AppendFloat(append(b, "|{"...), m.LatExp, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ' '), m.TrafficExp, 'g', -1, 64)
	b = append(append(b, "}|"...), o.Priority.String()...)
	b = strconv.AppendInt(append(b, '|'), int64(o.MemPolicy), 10)
	// Each baseline dataflow's name and permutation; nil is Canonical().
	dfs := bu.Dataflows
	if dfs == nil {
		dfs = loop.Canonical()
	}
	b = append(b, '|')
	for i, df := range dfs {
		if i > 0 {
			b = append(b, ',')
		}
		b = df.Append(b)
	}
	b = append(b, '|')
	for _, off := range [...]bool{o.DisableInPlace, o.DisablePruning, o.DisableDominance, bu.HintedOoO} {
		b = strconv.AppendBool(b, off)
	}
	b = appendInts(append(b, '|'), ':', bu.MaxTilings, bu.MaxOps, bu.MaxValuesPerDim, bu.MaxReadyWindow, bu.MaxCandidateSets)
	b = append(b, '|')
	// A fault plan gets its own entries; empty and nil ones add nothing.
	if !o.FaultPlan.Empty() {
		b = append(b, o.FaultPlan.String()...)
	}
	return b
}

// NetworkKey fingerprints a whole-network schedule request (network
// name, spatial scale, fuse depth and every option CacheKey keys) for
// cluster routing. Identical network sweeps route to one home peer and
// coalesce there; the per-layer cache entries the sweep creates still
// carry their own CacheKey homes for snapshot sharding.
func NetworkKey(network string, scale int, opts Options) string {
	var buf [512]byte
	b := append(append(append(buf[:0], "net|"...), network...), "|x"...)
	b = append(strconv.AppendInt(append(strconv.AppendInt(b, int64(max(scale, 1)), 10), "|f"...), int64(opts.FuseDepth), 10), '|')
	return string(appendOptionsKey(b, opts))
}
