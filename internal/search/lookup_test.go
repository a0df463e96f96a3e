package search

import (
	"bytes"
	"context"
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
)

// TestLookupNeitherWaitsNorLeads: Lookup answers only from a completed,
// successful entry — counted as a hit, reported to progress, under the
// caller's layer name — and leaves an absent key, one still being
// searched and a cached failure as it found them, for Layer.
func TestLookupNeitherWaitsNorLeads(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("first", 28, 28, 64, 96, 3)
	key := CacheKey(l, opts)
	if lr := opts.Cache.Lookup(key, l, nil); lr != nil || opts.Cache.Stats() != (CacheStats{}) {
		t.Fatalf("lookup of an absent key = %v, stats %+v: it must not search", lr, opts.Cache.Stats())
	}

	// In flight: a search held at its first candidate.
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	held := holdLeader(opts, started, release)
	go func() {
		_, err := opts.Cache.Layer(context.Background(), key, l, held)
		done <- err
	}()
	<-started
	if lr := opts.Cache.Lookup(key, l, nil); lr != nil {
		t.Error("lookup returned an entry still being searched")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var events []ProgressEvent
	renamed := l
	renamed.Name = "second"
	lr := opts.Cache.Lookup(key, renamed, func(ev ProgressEvent) { events = append(events, ev) })
	if lr == nil || lr.Layer.Name != "second" {
		t.Fatalf("lookup of a completed entry = %+v", lr)
	}
	if len(events) != 1 || events[0] != (ProgressEvent{Layer: "second", CacheHit: true}) {
		t.Errorf("progress = %+v, want one cache-hit event for the caller's layer", events)
	}
	if s := opts.Cache.Stats(); s.Misses != 1 || s.Hits != 1 || s.CoalescedHits != 0 {
		t.Errorf("stats = %+v, want 1 miss (the held search) and 1 hit", s)
	}

	// A cached failure stays Layer's to report.
	tiny := tinyOpts()
	tiny.Cache = opts.Cache
	bad := infeasibleLayer("bad")
	if _, err := SearchLayer(bad, tiny); err == nil {
		t.Fatal("infeasible layer searched without error")
	}
	before := opts.Cache.Stats()
	if lr := opts.Cache.Lookup(CacheKey(bad, tiny), bad, nil); lr != nil || opts.Cache.Stats() != before {
		t.Errorf("lookup of a cached failure = %v, stats %+v -> %+v", lr, before, opts.Cache.Stats())
	}
}

// TestNetworkMemo: a network memo is an entry of the cache that only
// NetworkMemo reads. Finding it is a hit; the first one stored stays;
// Lookup never returns it, no snapshot carries it, and it is evicted
// like any entry.
func TestNetworkMemo(t *testing.T) {
	opts := quickOpts(t, "arch1")
	c := NewCacheSized(1)
	key := NetworkKey("vgg16", 8, opts)
	if b := c.NetworkMemo(key); b != nil {
		t.Fatalf("memo of an empty cache = %q", b)
	}
	c.SetNetworkMemo(key, []byte("first"))
	c.SetNetworkMemo(key, []byte("second"))
	if b := c.NetworkMemo(key); string(b) != "first" {
		t.Errorf("memo = %q, want the first one stored", b)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 entry", s)
	}
	if lr := c.Lookup(key, layer.Conv{}, nil); lr != nil {
		t.Error("Lookup returned a network memo as a layer result")
	}
	var snap bytes.Buffer
	if n, err := c.SaveTo(&snap); err != nil || n != 0 {
		t.Errorf("snapshot of a memo-only cache wrote %d entries, %v; want 0", n, err)
	}

	// A layer result evicts it.
	opts.Cache = c
	if _, err := SearchLayer(layer.NewConv("l", 8, 8, 4, 4, 1), opts); err != nil {
		t.Fatal(err)
	}
	if b := c.NetworkMemo(key); b != nil || c.Stats().Evictions != 1 {
		t.Errorf("memo %q and %d evictions after a layer result, want the memo evicted", b, c.Stats().Evictions)
	}
}
