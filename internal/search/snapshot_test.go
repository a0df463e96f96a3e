package search

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
)

// TestCacheSnapshotRoundTrip is the warm-restart path: search, save,
// load into a fresh cache, and the same lookup must hit without
// recomputing, returning an identical schedule.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l1 := layer.NewConv("a", 8, 8, 4, 4, 3)
	l2 := layer.NewConv("b", 8, 8, 4, 8, 3)

	want1, err := SearchLayer(l1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SearchLayer(l2, opts); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := opts.Cache.SaveTo(&buf)
	if err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	if n != 2 {
		t.Fatalf("SaveTo wrote %d entries, want 2", n)
	}

	warm := NewCache()
	loaded, err := warm.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if loaded != 2 {
		t.Fatalf("LoadFrom installed %d entries, want 2", loaded)
	}
	if warm.Len() != 2 {
		t.Fatalf("warm cache has %d entries, want 2", warm.Len())
	}

	opts.Cache = warm
	got, err := SearchLayer(l1, opts)
	if err != nil {
		t.Fatalf("lookup on warm cache: %v", err)
	}
	s := warm.Stats()
	if s.Misses != 0 || s.Hits != 1 {
		t.Fatalf("warm lookup stats = %+v, want 0 misses 1 hit", s)
	}
	if got.BestOoO.LatencyCycles != want1.BestOoO.LatencyCycles ||
		got.BestOoO.Factors != want1.BestOoO.Factors ||
		got.BestStatic.LatencyCycles != want1.BestStatic.LatencyCycles {
		t.Errorf("warm result differs from original:\n%+v\n%+v", got.BestOoO, want1.BestOoO)
	}
	if got.Layer.Name != "a" {
		t.Errorf("warm result layer name = %q, want a", got.Layer.Name)
	}
}

// TestCacheSnapshotIsDeterministic: a snapshot is a function of the
// cache's contents — nothing in a LayerResult is a map, so two saves of
// one cache, and a save of the cache loaded from one, are the same
// bytes, and snapshots can be compared or content-addressed as files.
func TestCacheSnapshotIsDeterministic(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	for _, l := range []layer.Conv{layer.NewConv("a", 8, 8, 4, 4, 3), layer.NewConv("b", 16, 16, 8, 8, 3)} {
		if _, err := SearchLayer(l, opts); err != nil {
			t.Fatal(err)
		}
	}
	var first, second, reloaded bytes.Buffer
	for _, buf := range []*bytes.Buffer{&first, &second} {
		if n, err := opts.Cache.SaveTo(buf); err != nil || n != 2 {
			t.Fatalf("SaveTo = %d, %v", n, err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two snapshots of one cache differ")
	}
	warm := NewCache()
	if n, err := warm.LoadFrom(bytes.NewReader(first.Bytes())); err != nil || n != 2 {
		t.Fatalf("LoadFrom = %d, %v", n, err)
	}
	if _, err := warm.SaveTo(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), reloaded.Bytes()) {
		t.Error("the snapshot of a cache loaded from a snapshot differs from it")
	}
}

// TestCacheSnapshotFromIntTileIDs loads
// testdata/snapshot_v4_int_tile_ids.gob, the snapshot of vgg16/4's first
// two layers on arch1 at the quick budget (one worker) written when
// tile.ID's coordinates and layer were int: gob decodes them into the
// narrower fields, so a version 4 snapshot stays good. Its entries
// answer the keys a fresh search of those layers caches, and a save of
// the loaded cache is the same bytes as a save of the fresh one.
func TestCacheSnapshotFromIntTileIDs(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "snapshot_v4_int_tile_ids.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded := NewCache()
	if n, err := loaded.LoadFrom(f); err != nil || n != 2 {
		t.Fatalf("LoadFrom = %d, %v; want 2 entries", n, err)
	}

	opts := quickOpts(t, "arch1")
	opts.Workers = 1
	opts.Cache = NewCache()
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range n.Scale(4).Layers[:2] {
		if _, err := SearchLayer(l, opts); err != nil {
			t.Fatal(err)
		}
		if loaded.Lookup(CacheKey(l, opts), l, nil) == nil {
			t.Errorf("loaded snapshot has no entry for %s's key %q", l.Name, CacheKey(l, opts))
		}
	}
	var fresh, reloaded bytes.Buffer
	if _, err := opts.Cache.SaveTo(&fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.SaveTo(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), reloaded.Bytes()) {
		t.Error("the loaded snapshot's entries differ from a fresh search's")
	}
}

// TestCacheSnapshotSkipsFailures checks that cached negative results
// (a layer whose search failed) are not persisted: a failure may be
// transient, and a restart should get a fresh chance.
func TestCacheSnapshotSkipsFailures(t *testing.T) {
	opts := tinyOpts()
	opts.Cache = NewCache()
	good := layer.NewConv("good", 8, 8, 1, 1, 1)

	if _, err := SearchLayer(good, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := SearchLayer(infeasibleLayer("bad"), opts); err == nil {
		t.Fatal("infeasible layer searched without error")
	}
	if n := opts.Cache.Len(); n != 2 {
		t.Fatalf("cache has %d entries, want 2 (failure cached)", n)
	}

	var buf bytes.Buffer
	n, err := opts.Cache.SaveTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("SaveTo wrote %d entries, want 1 (failures skipped)", n)
	}
}

// TestCacheSnapshotVersionMismatch checks that a snapshot from an
// incompatible version — version 2, whose keys named the arch and the
// fuse depth, version 3, whose keys wrote a budget's zero limits as 0,
// or a future one — is rejected whole with the typed
// ErrSnapshotVersion, degrading to a cold start.
func TestCacheSnapshotVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	c := NewCache()
	for _, v := range []int{2, 3, snapshotVersion + 1} {
		buf.Reset()
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(snapshotHeader{Magic: snapshotMagic, Version: v}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(0); err != nil {
			t.Fatal(err)
		}
		_, err := c.LoadFrom(&buf)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("LoadFrom(version %d) = %v, want version error", v, err)
		}
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("LoadFrom(version %d) = %v, want errors.Is(ErrSnapshotVersion)", v, err)
		}
		if c.Len() != 0 {
			t.Fatalf("cache has %d entries after rejected load, want 0", c.Len())
		}
	}

	// A wrong magic is a different failure: not a snapshot at all, so
	// it must NOT claim to be a version mismatch.
	buf.Reset()
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(snapshotHeader{Magic: "something-else", Version: snapshotVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadFrom(&buf); err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("LoadFrom(bad magic) = %v, want a non-version error", err)
	}
}

// TestCacheSnapshotShardFilter checks SaveShardTo exports exactly the
// keys the filter keeps, and that a warm load of the shard serves hits
// for those keys only — the cluster join warm-up path.
func TestCacheSnapshotShardFilter(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l1 := layer.NewConv("a", 8, 8, 4, 4, 3)
	l2 := layer.NewConv("b", 8, 8, 4, 8, 3)
	if _, err := SearchLayer(l1, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := SearchLayer(l2, opts); err != nil {
		t.Fatal(err)
	}

	keep := CacheKey(l1, opts)
	var buf bytes.Buffer
	n, err := opts.Cache.SaveShardTo(&buf, func(key string) bool { return key == keep })
	if err != nil {
		t.Fatalf("SaveShardTo: %v", err)
	}
	if n != 1 {
		t.Fatalf("SaveShardTo wrote %d entries, want 1", n)
	}

	warm := NewCache()
	if loaded, err := warm.LoadFrom(&buf); err != nil || loaded != 1 {
		t.Fatalf("LoadFrom = (%d, %v), want (1, nil)", loaded, err)
	}
	opts.Cache = warm
	if _, err := SearchLayer(l1, opts); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("kept key stats = %+v, want a pure hit", s)
	}
	if _, err := SearchLayer(l2, opts); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Misses != 1 {
		t.Fatalf("filtered-out key stats = %+v, want one miss", s)
	}
}

// TestCacheKeyFingerprintsRouting pins the exported key helpers: layer
// keys ignore the layer's name but nothing else, and network keys
// distinguish name, scale and options.
func TestCacheKeyFingerprintsRouting(t *testing.T) {
	opts := quickOpts(t, "arch1")
	l := layer.NewConv("a", 8, 8, 4, 4, 3)
	renamed := l
	renamed.Name = "z"
	if CacheKey(l, opts) != CacheKey(renamed, opts) {
		t.Error("layer name should not change the cache key")
	}
	bigger := layer.NewConv("a", 8, 8, 4, 8, 3)
	if CacheKey(l, opts) == CacheKey(bigger, opts) {
		t.Error("different shapes must not share a key")
	}
	other := opts
	other.DisableInPlace = true
	if CacheKey(l, opts) == CacheKey(l, other) {
		t.Error("different options must not share a key")
	}

	if NetworkKey("vgg16", 2, opts) == NetworkKey("vgg16", 4, opts) {
		t.Error("network keys must distinguish scale")
	}
	if NetworkKey("vgg16", 2, opts) == NetworkKey("resnet50", 2, opts) {
		t.Error("network keys must distinguish the network")
	}
	if NetworkKey("vgg16", 0, opts) != NetworkKey("vgg16", 1, opts) {
		t.Error("scale 0 and 1 both mean full size and must share a key")
	}
	if NetworkKey("vgg16", 2, opts) == NetworkKey("vgg16", 2, other) {
		t.Error("network keys must distinguish options")
	}
}

// TestCacheSnapshotGarbage checks that arbitrary bytes are rejected
// with an error instead of corrupting the cache.
func TestCacheSnapshotGarbage(t *testing.T) {
	c := NewCache()
	for name, data := range map[string][]byte{
		"empty":     nil,
		"text":      []byte("not a snapshot at all"),
		"truncated": []byte{0x0d, 0x7f, 0x03, 0x01},
	} {
		if _, err := c.LoadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: LoadFrom succeeded, want error", name)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cache has %d entries after garbage loads, want 0", c.Len())
	}
}

// TestCacheSnapshotRespectsCapacity loads a snapshot into a smaller
// cache: it keeps the k most recently used entries of the source, in
// the source's recency order.
func TestCacheSnapshotRespectsCapacity(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCacheSized(0) // unbounded source
	shape := func(k int) layer.Conv { return layer.NewConv("l", 8, 8, 4, 4+k, 3) }
	const n, k = 6, 3
	// Search 0..n-1, then touch 0 and 2: recency, most recent first, is
	// 2, 0, n-1, n-2, ...
	for _, s := range []int{0, 1, 2, 3, 4, 5, 0, 2} {
		if _, err := SearchLayer(shape(s), opts); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := opts.Cache.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	small := NewCacheSized(k)
	if _, err := small.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if small.Len() != k {
		t.Fatalf("loaded cache has %d entries, want its capacity %d", small.Len(), k)
	}
	for s := 0; s < n; s++ {
		if want := s == 2 || s == 0 || s == n-1; cached(small, CacheKey(shape(s), opts)) != want {
			t.Errorf("shape %d loaded = %v, want %v", s, !want, want)
		}
	}
	// The loaded order is the source's: one more entry evicts shape n-1,
	// the least recent of the three.
	small.SetNetworkMemo("net", nil)
	if cached(small, CacheKey(shape(n-1), opts)) || !cached(small, CacheKey(shape(0), opts)) {
		t.Error("the loaded cache did not keep the source's recency order")
	}
}

// TestCacheSnapshotExistingEntriesWin checks that loading never
// clobbers an entry the running process already has.
func TestCacheSnapshotExistingEntriesWin(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("a", 8, 8, 4, 4, 3)
	if _, err := SearchLayer(l, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := opts.Cache.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := opts.Cache.LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 {
		t.Fatalf("LoadFrom into the same cache installed %d entries, want 0", loaded)
	}
	if opts.Cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", opts.Cache.Len())
	}

	// The pre-existing entry must still be served (as a hit).
	before := opts.Cache.Stats()
	if _, err := SearchLayerCtx(context.Background(), l, opts); err != nil {
		t.Fatal(err)
	}
	after := opts.Cache.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("stats %+v -> %+v, want one more hit and no new miss", before, after)
	}
}
