package search

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/nets"
)

// TestCacheStatsHitMiss checks the observable miss-then-hit sequence a
// serving layer relies on.
func TestCacheStatsHitMiss(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("a", 8, 8, 4, 4, 3)

	if _, err := SearchLayer(l, opts); err != nil {
		t.Fatal(err)
	}
	s := opts.Cache.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first lookup: %+v, want 1 miss 0 hits", s)
	}

	// The same shape under a different name must hit.
	renamed := l
	renamed.Name = "b"
	if _, err := SearchLayer(renamed, opts); err != nil {
		t.Fatal(err)
	}
	s = opts.Cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after second lookup: %+v, want 1 miss 1 hit", s)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	if s.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", s.Entries)
	}
}

// TestCacheConcurrent hammers one bounded cache from many goroutines
// mixing repeated and distinct shapes; run under -race this exercises
// the cache's locking, and the counters must reconcile exactly:
// distinct shapes = misses, everything else = hits.
func TestCacheConcurrent(t *testing.T) {
	opts := quickOpts(t, "arch1")
	cache := NewCacheSized(1024)
	opts.Cache = cache

	const workers = 16
	const perWorker = 8
	const distinct = 4

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Cycle through `distinct` shapes so every worker
				// lookups every shape repeatedly.
				k := (w + i) % distinct
				l := layer.NewConv(fmt.Sprintf("w%d-i%d", w, i), 8, 8, 4, 4+k, 3)
				if _, err := SearchLayer(l, opts); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	s := cache.Stats()
	if s.Misses != distinct {
		t.Errorf("misses = %d, want %d (one per distinct shape)", s.Misses, distinct)
	}
	// A lookup that raced the computing leader counts as coalesced, a
	// lookup of the finished entry as a plain hit; together they must
	// cover every non-miss lookup.
	if got := s.Hits + s.CoalescedHits; got != workers*perWorker-distinct {
		t.Errorf("hits+coalesced = %d, want %d", got, workers*perWorker-distinct)
	}
	if s.Entries != distinct {
		t.Errorf("entries = %d, want %d", s.Entries, distinct)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}

// cached reports whether c holds key, without touching its LRU
// position or counters.
func cached(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// TestCacheBoundIsExact checks NewCacheSized(n)'s contract on cheap
// synthetic entries: it holds n completed entries and never more, and
// each one beyond evicts the least recently used of all keys.
func TestCacheBoundIsExact(t *testing.T) {
	for _, n := range []int{1, 2, 17, 4096} {
		c := NewCacheSized(n)
		key := func(i int) string { return fmt.Sprint("k", i) }
		put := func(i int) {
			if !c.insertCompleted(&cacheEntry{key: key(i), lr: &LayerResult{}}) {
				t.Fatalf("n=%d: key %d already present", n, i)
			}
		}
		for i := 0; i < n; i++ {
			put(i)
		}
		if s := c.Stats(); s.Entries != n || s.Evictions != 0 {
			t.Fatalf("n=%d: %+v after n keys, want n entries and no eviction", n, s)
		}
		// Touch the oldest key: the next insert must evict the second
		// oldest instead (the touched key itself when n is 1).
		if c.completed(key(0)) == nil {
			t.Fatalf("n=%d: key 0 missing", n)
		}
		victim := min(1, n-1)
		put(n)
		if s := c.Stats(); s.Entries != n || s.Evictions != 1 || cached(c, key(victim)) {
			t.Fatalf("n=%d: %+v after n+1 keys, want exactly key %d evicted", n, s, victim)
		}
		for i := n + 1; i < 2*n+3; i++ {
			put(i)
			if got := c.Len(); got != n {
				t.Fatalf("n=%d: %d entries after key %d", n, got, i)
			}
		}
	}
}

// TestCacheEviction checks the LRU bound through real searches: a cache
// of capacity n given n+1 shapes evicts exactly one, the least recently
// used, and a re-lookup of it recomputes while the rest keep hitting.
func TestCacheEviction(t *testing.T) {
	opts := quickOpts(t, "arch1")
	const n = 3
	cache := NewCacheSized(n)
	opts.Cache = cache

	shape := func(k int) layer.Conv { return layer.NewConv("l", 8, 8, 4, 4+k, 3) }
	search := func(k int) {
		t.Helper()
		if _, err := SearchLayer(shape(k), opts); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		search(k)
	}
	search(0) // a hit: shape 1 is now the least recently used
	search(n)
	s := cache.Stats()
	if s.Misses != n+1 || s.Hits != 1 || s.Evictions != 1 || s.Entries != n {
		t.Fatalf("stats %+v, want %d misses, 1 hit, 1 eviction, %d entries", s, n+1, n)
	}
	if cached(cache, CacheKey(shape(1), opts)) {
		t.Fatal("shape 1, the least recently used, was not the one evicted")
	}

	// The evicted shape is recomputed (a fresh miss), not served stale
	// or failed; the others hit.
	for _, k := range []int{0, 2, n} {
		search(k)
	}
	if after := cache.Stats(); after.Misses != s.Misses || after.Hits != s.Hits+3 {
		t.Fatalf("stats %+v -> %+v, want 3 hits and no miss", s, after)
	}
	search(1)
	if after := cache.Stats(); after.Misses != s.Misses+1 || after.Evictions != 2 {
		t.Fatalf("stats %+v after re-looking up the evicted shape, want one more miss and eviction", after)
	}
}

// TestCacheConcurrentEviction mixes the exact bound with concurrency
// under -race: many goroutines fill a cache of capacity n, then all ask
// for one key more, which is searched once and evicts exactly the least
// recently used entry.
func TestCacheConcurrentEviction(t *testing.T) {
	opts := quickOpts(t, "arch1")
	const n = 4
	cache := NewCacheSized(n)
	opts.Cache = cache
	shape := func(k int) layer.Conv { return layer.NewConv("l", 8, 8, 4, 4+k, 3) }

	const workers = 8
	hammer := func(keys ...int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range keys {
					if _, err := SearchLayer(shape(keys[(w+i)%len(keys)]), opts); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	hammer(0, 1, 2, 3)
	if s := cache.Stats(); s.Misses != n || s.Entries != n || s.Evictions != 0 || s.Hits+s.CoalescedHits != workers*n-n {
		t.Fatalf("stats %+v after %d workers looked up %d keys, want %d misses and no eviction", s, workers, n, n)
	}
	for _, k := range []int{1, 0, 3} { // shape 2 is now the least recently used
		if cache.Lookup(CacheKey(shape(k), opts), shape(k), nil) == nil {
			t.Fatalf("shape %d missing", k)
		}
	}
	hammer(n)
	if s := cache.Stats(); s.Misses != n+1 || s.Entries != n || s.Evictions != 1 {
		t.Fatalf("stats %+v after one key more, want %d misses, %d entries and 1 eviction", s, n+1, n)
	}
	if cached(cache, CacheKey(shape(2), opts)) {
		t.Fatal("shape 2, the least recently used, was not the one evicted")
	}
}

// TestCacheCancelledSearchNotPoisoned checks that a search aborted by
// its caller's context does not leave a permanently failed entry: a
// later caller with a live context recomputes and succeeds.
func TestCacheCancelledSearchNotPoisoned(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("l", 28, 28, 64, 96, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the search aborts at its first check
	if _, err := SearchLayerCtx(ctx, l, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}

	lr, err := SearchLayerCtx(context.Background(), l, opts)
	if err != nil {
		t.Fatalf("search after cancelled predecessor failed: %v", err)
	}
	if lr.BestOoO == nil {
		t.Fatal("missing result after recompute")
	}
	if n := opts.Cache.Len(); n != 1 {
		t.Fatalf("cache has %d entries, want 1 (cancelled entry dropped)", n)
	}
}

// TestCacheRealFailureNotClassifiedAsCancelled is the negative-cache
// bugfix: a search that fails for a real reason (here an infeasible
// shape) while the caller's context happens to be dead must stay
// cached, so later callers inherit the verdict instead of recomputing
// it. Before the fix any error under ctx.Err() != nil was treated as a
// cancellation and forgotten.
func TestCacheRealFailureNotClassifiedAsCancelled(t *testing.T) {
	opts := tinyOpts()
	opts.Cache = NewCache()
	bad := infeasibleLayer("bad")

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead context, but the failure below is not a cancellation
	_, err := SearchLayerCtx(ctx, bad, opts)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("infeasible layer under dead context returned %v, want a search failure", err)
	}
	if n := opts.Cache.Len(); n != 1 {
		t.Fatalf("cache has %d entries, want 1 (real failure cached)", n)
	}

	// A later caller with a live context gets the cached verdict
	// without recomputing.
	_, err2 := SearchLayerCtx(context.Background(), bad, opts)
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second lookup returned %v, want the cached %v", err2, err)
	}
	s := opts.Cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit (no recompute)", s)
	}
}

// tinyOpts is a one-core machine with a 1 KiB scratchpad, on which
// infeasibleLayer has no tiling.
func tinyOpts() Options {
	return Options{Arch: arch.New("tiny", 1, arch.KiB(1), 32), Budget: QuickBudget()}
}

// infeasibleLayer is a valid layer whose 31x31 kernel tile alone
// outgrows tinyOpts' scratchpad.
func infeasibleLayer(name string) layer.Conv {
	return layer.NewConv(name, 32, 32, 1, 1, 31)
}

// TestSharedFailureNamesItsCaller searches one infeasible shape under
// two layer names and two arch names with equal numbers: the second
// lookup is a hit on the first one's cached failure, and each error
// names its own caller's layer and arch.
func TestSharedFailureNamesItsCaller(t *testing.T) {
	first, second := tinyOpts(), tinyOpts()
	first.Arch.Name, second.Arch.Name = "tiny-a", "tiny-b"
	first.Cache = NewCache()
	second.Cache = first.Cache
	_, err1 := SearchLayer(infeasibleLayer("first"), first)
	_, err2 := SearchLayer(infeasibleLayer("second"), second)
	for _, c := range []struct {
		err         error
		layer, arch string
	}{{err1, "first", "tiny-a"}, {err2, "second", "tiny-b"}} {
		if want := "search: no feasible tiling for layer " + c.layer + " on " + c.arch; c.err == nil || c.err.Error() != want {
			t.Errorf("error = %v, want %q", c.err, want)
		}
	}
	if s := first.Cache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit (one shared failure)", s)
	}
}

// TestCacheCancelledEntryRetryLoop exercises the waiter retry loop: a
// computing caller with a dead context abandons its entry, and every
// concurrent waiter with a live context must end up with a real
// result — either by waiting out the cancelled entry and recomputing,
// or by computing fresh. Run under -race this also checks the
// entry-handoff locking.
func TestCacheCancelledEntryRetryLoop(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("l", 28, 28, 64, 96, 3)

	dead, cancel := context.WithCancel(context.Background())
	cancel()

	const waiters = 8
	var wg sync.WaitGroup
	cancelledErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := SearchLayerCtx(dead, l, opts)
		cancelledErr <- err
	}()
	// The dead caller must be the computing one: a lookup that finds a
	// completed entry picks at random between it and the dead context.
	// Its entry exists once its miss is counted.
	for opts.Cache.Stats().Misses == 0 {
		runtime.Gosched()
	}
	results := make([]*LayerResult, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = SearchLayerCtx(context.Background(), l, opts)
		}(i)
	}
	wg.Wait()

	if err := <-cancelledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d failed: %v", i, errs[i])
		}
		if results[i] == nil || results[i].BestOoO == nil {
			t.Fatalf("waiter %d got no result", i)
		}
		if results[i].BestOoO.LatencyCycles != results[0].BestOoO.LatencyCycles {
			t.Errorf("waiter %d latency %d != waiter 0 latency %d",
				i, results[i].BestOoO.LatencyCycles, results[0].BestOoO.LatencyCycles)
		}
	}
	if n := opts.Cache.Len(); n != 1 {
		t.Fatalf("cache has %d entries, want exactly 1 surviving entry", n)
	}
	// A retrying waiter re-enters the lookup loop, so it may account
	// more than one hit; the floor is one account per caller.
	s := opts.Cache.Stats()
	if got := s.Hits + s.CoalescedHits + s.Misses; got < waiters+1 {
		t.Errorf("hits+coalesced+misses = %d, want >= %d", got, waiters+1)
	}
}

// holdLeader returns Options whose Progress callback blocks the
// leader's search at its first candidate event until release is
// closed, signalling started once. The reporter invokes the callback
// under its lock, so every other candidate goroutine of that search
// queues behind it and the layer search cannot complete — the entry
// stays deterministically in flight.
func holdLeader(opts Options, started chan<- struct{}, release <-chan struct{}) Options {
	var once sync.Once
	opts.Progress = func(ProgressEvent) {
		once.Do(func() { close(started) })
		<-release
	}
	return opts
}

// waitForCoalesced polls until the cache has accounted n coalesced
// hits (the joiners have attached to the in-flight entry).
func waitForCoalesced(t *testing.T, c *Cache, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().CoalescedHits < n {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced hits stuck at %d, want %d", c.Stats().CoalescedHits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheCoalescingSingleSearch is the singleflight acceptance test:
// with one search deterministically held in flight, N concurrent
// lookups of the same key all attach to it — exactly one underlying
// search runs, the joiners are accounted as coalesced hits (not plain
// hits), and everyone gets the leader's result.
func TestCacheCoalescingSingleSearch(t *testing.T) {
	opts := quickOpts(t, "arch1")
	cache := NewCache()
	opts.Cache = cache
	l := layer.NewConv("l", 14, 14, 64, 64, 3)

	started := make(chan struct{})
	release := make(chan struct{})
	leaderOpts := holdLeader(opts, started, release)

	var wg sync.WaitGroup
	var leaderRes *LayerResult
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderRes, leaderErr = SearchLayer(l, leaderOpts)
	}()
	<-started

	const joiners = 8
	results := make([]*LayerResult, joiners)
	errs := make([]error, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = SearchLayer(l, opts)
		}(i)
	}
	waitForCoalesced(t, cache, joiners)
	close(release)
	wg.Wait()

	if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	}
	for i := 0; i < joiners; i++ {
		if errs[i] != nil {
			t.Fatalf("joiner %d: %v", i, errs[i])
		}
		if results[i].BestOoO.LatencyCycles != leaderRes.BestOoO.LatencyCycles {
			t.Errorf("joiner %d latency %d != leader %d", i,
				results[i].BestOoO.LatencyCycles, leaderRes.BestOoO.LatencyCycles)
		}
		if results[i].Layer.Name != "l" {
			t.Errorf("joiner %d layer name %q", i, results[i].Layer.Name)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 underlying search", s.Misses)
	}
	if s.CoalescedHits != joiners {
		t.Errorf("coalesced hits = %d, want %d", s.CoalescedHits, joiners)
	}
	if s.Hits != 0 {
		t.Errorf("hits = %d, want 0 (every non-leader attached in flight)", s.Hits)
	}
}

// TestCacheCoalescedJoinerCancelled checks that a joiner whose context
// dies mid-flight gets ctx.Err() immediately without poisoning the
// leader: the leader's search completes, its entry stays valid, and a
// later lookup is a plain hit.
func TestCacheCoalescedJoinerCancelled(t *testing.T) {
	opts := quickOpts(t, "arch1")
	cache := NewCache()
	opts.Cache = cache
	l := layer.NewConv("l", 14, 14, 64, 64, 3)

	started := make(chan struct{})
	release := make(chan struct{})
	leaderOpts := holdLeader(opts, started, release)

	var wg sync.WaitGroup
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = SearchLayer(l, leaderOpts)
	}()
	<-started

	joinCtx, cancelJoin := context.WithCancel(context.Background())
	joinErr := make(chan error, 1)
	go func() {
		_, err := SearchLayerCtx(joinCtx, l, opts)
		joinErr <- err
	}()
	waitForCoalesced(t, cache, 1)
	cancelJoin()

	// The joiner must return promptly with its own ctx error, while
	// the leader is still held in flight.
	select {
	case err := <-joinErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled joiner returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled joiner did not return while leader in flight")
	}

	close(release)
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader failed after joiner cancellation: %v", leaderErr)
	}
	// The surviving entry serves later lookups as plain hits.
	if _, err := SearchLayer(l, opts); err != nil {
		t.Fatalf("post-cancel lookup: %v", err)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit (leader result intact)", s)
	}
}

// unkeyed names, with the reason, the fields that cannot change a layer
// search result and therefore must not change its cache key: requests
// differing only in these share one search. Every other field of
// Options, Budget and arch.Config must change the key — so a field
// added later without either keying it or listing it here fails
// TestCacheKeyCoversOptions.
var unkeyed = map[string]string{
	"Workers":   "parallelism: it may move the effort counters, never the schedules",
	"Cache":     "where the result is kept",
	"Progress":  "a callback that observes the search",
	"sem":       "the shared worker-pool semaphore",
	"Arch.Name": "a label: the machine is its numbers, and callers echo their own name",
	"FuseDepth": "the fusion pass runs on top of the layer results; NetworkKey keys it",
}

// perturb changes v to a different value of its type, reporting false
// for kinds it has no rule for.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(v.Slice(0, v.Len()-1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			return make([]reflect.Value, v.Type().NumOut())
		}))
	default:
		return false
	}
	return true
}

// TestCacheKeyCoversOptions is the regression test for wrong cache
// hits from a forgotten field: it walks every field of Options — into
// Budget, Metric and arch.Config — perturbs one at a time, and requires
// the cache key and the network key to change unless the field is
// listed as unkeyed, in which case they must not; FuseDepth, unkeyed
// per layer, must change the network key.
func TestCacheKeyCoversOptions(t *testing.T) {
	l := layer.NewConv("l", 14, 14, 64, 64, 3)
	base := quickOpts(t, "arch1")
	baseKey, baseNet := CacheKey(l, base), NetworkKey("vgg16", 4, base)

	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, idx := path+f.Name, append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", idx, f.Type)
				continue
			}
			o := base
			field := reflect.ValueOf(&o).Elem().FieldByIndex(idx)
			switch {
			case name == "FaultPlan":
				// A fresh pointer would be the empty plan, which keys as nil.
				o.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}}
			case !field.CanSet() || !perturb(field):
				if unkeyed[name] == "" {
					t.Errorf("field %s cannot be perturbed by this test: key it and teach perturb its kind, or list it in unkeyed", name)
				}
				continue
			}
			_, skip := unkeyed[name]
			switch changed := CacheKey(l, o) != baseKey; {
			case skip && changed:
				t.Errorf("unkeyed field %s changed the cache key; identical searches would not coalesce", name)
			case !skip && !changed:
				t.Errorf("field %s does not change the cache key; requests differing in it would share a result", name)
			}
			if changed, want := NetworkKey("vgg16", 4, o) != baseNet, !skip || name == "FuseDepth"; changed != want {
				t.Errorf("field %s: network key changed %v, want %v", name, changed, want)
			}
		}
	}
	walk("", nil, reflect.TypeOf(base))

	// The dataflow set is keyed by content, not length (two equal-length
	// sets once coalesced), and nil means the canonical set.
	front, back, unset := base, base, base
	front.Budget.Dataflows = loop.Canonical()[:3]
	back.Budget.Dataflows = loop.Canonical()[3:]
	unset.Budget.Dataflows = nil
	if CacheKey(l, front) == CacheKey(l, back) {
		t.Error("equal-length dataflow sets with different content share a cache key")
	}
	if CacheKey(l, unset) != baseKey {
		t.Error("nil dataflows and the explicit canonical set have different cache keys")
	}
}

// TestCachePEGeometryNotCoalesced is the behavioral half for the PE
// array: two archs equal in name, cores, scratchpad and bandwidth but
// not in PE geometry have different op cycles, so they run two
// searches and get different schedules.
func TestCachePEGeometryNotCoalesced(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("l", 8, 8, 64, 64, 3)

	wide, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	narrow := opts
	narrow.Arch.PERows, narrow.Arch.PECols = 8, 8
	small, err := SearchLayer(l, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if s := opts.Cache.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses 0 hits (PE geometries must not share a result)", s)
	}
	if small.BestOoO.LatencyCycles <= wide.BestOoO.LatencyCycles {
		t.Errorf("8x8 PEs took %d cycles, 32x32 took %d; the smaller array must be slower",
			small.BestOoO.LatencyCycles, wide.BestOoO.LatencyCycles)
	}
}

// TestCacheMetricNotCoalesced is the behavioral half of the key
// regression: the same shape under two metrics runs two searches.
func TestCacheMetricNotCoalesced(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("l", 8, 8, 4, 4, 3)

	if _, err := SearchLayer(l, opts); err != nil {
		t.Fatal(err)
	}
	minT := opts
	minT.Metric = MetricMinTransfer()
	if _, err := SearchLayer(l, minT); err != nil {
		t.Fatal(err)
	}
	s := opts.Cache.Stats()
	if s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses 0 hits (metrics must not share a result)", s)
	}
}

// TestZeroMetricIsDefaultKey checks that the zero Metric, which ranks
// as MetricDefault, also keys as it: one entry and one search for both,
// and one network key.
func TestZeroMetricIsDefaultKey(t *testing.T) {
	zero := quickOpts(t, "arch1")
	zero.Cache = NewCache()
	def := zero
	def.Metric = MetricDefault()
	l := layer.NewConv("l", 8, 8, 4, 4, 3)
	if CacheKey(l, zero) != CacheKey(l, def) || NetworkKey("n", 1, zero) != NetworkKey("n", 1, def) {
		t.Fatal("the zero metric and MetricDefault key differently")
	}
	for _, o := range []Options{zero, def} {
		if _, err := SearchLayer(l, o); err != nil {
			t.Fatal(err)
		}
	}
	if s := zero.Cache.Stats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit and 1 entry", s)
	}
}

// TestSearchNetworkCtxCancelled checks that a network search honours a
// dead context promptly instead of scheduling every layer.
func TestSearchNetworkCtxCancelled(t *testing.T) {
	opts := quickOpts(t, "arch1")
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchNetworkCtx(ctx, n.Scale(4), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPanickingLeaderReleasesWaiters: a leader whose search panics — here
// its first progress event, once a waiter has coalesced onto its entry —
// forgets the entry on the panic's way up and closes it, so the waiter
// runs its own search at once instead of waiting out its deadline.
func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	opts := quickOpts(t, "arch1")
	cache := NewCache()
	opts.Cache = cache
	l := layer.NewConv("l", 14, 14, 64, 64, 3)

	started, release := make(chan struct{}), make(chan struct{})
	leader := opts
	var first sync.Once
	leader.Progress = func(ProgressEvent) {
		first.Do(func() {
			close(started)
			<-release
			panic("leader progress")
		})
	}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _ = SearchLayer(l, leader)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		lr  *LayerResult
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		lr, err := SearchLayerCtx(ctx, l, opts)
		waiter <- outcome{lr, err}
	}()
	waitForCoalesced(t, cache, 1)
	close(release)
	if r := <-recovered; r != "leader progress" {
		t.Fatalf("leader recovered %v, want its progress callback's panic", r)
	}
	select {
	case o := <-waiter:
		if o.err != nil || o.lr.BestOoO == nil {
			t.Fatalf("waiter: %v", o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter is still waiting on the panicked leader's entry")
	}
	if s := cache.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 misses (leader, then waiter) and 1 entry", s)
	}
}
