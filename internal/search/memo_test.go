package search

import (
	"bytes"
	"sync"
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
)

// TestMemoLivesAndDiesWithEntry pins LayerResult.Memo: build runs once
// per cache entry however many lookups ask, the bytes do not depend on
// the asking layer's name, eviction drops them with the entry, a
// snapshot never holds them, and a result from no cache builds each
// time.
func TestMemoLivesAndDiesWithEntry(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Workers = 1
	opts.Cache = NewCacheSized(1)
	a := layer.NewConv("a", 8, 8, 4, 4, 3)
	// A second shape: looking it up evicts a's entry.
	b := layer.NewConv("b", 8, 8, 4, 5, 3)

	builds := 0
	memo := func(l layer.Conv) []byte {
		t.Helper()
		lr, err := SearchLayer(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		return lr.Memo(func() []byte { builds++; return []byte("memo:" + lr.BestOoO.Factors.String()) })
	}
	first := memo(a)
	renamed := a
	renamed.Name = "other-name"
	if again := memo(renamed); builds != 1 || &again[0] != &first[0] {
		t.Fatalf("second lookup of the entry built again (%d builds) or got other bytes", builds)
	}

	var snap bytes.Buffer
	if _, err := opts.Cache.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap.Bytes(), []byte("memo:")) {
		t.Error("the snapshot holds the memo")
	}

	memo(b)
	if st := opts.Cache.Stats(); st.Evictions != 1 || builds != 2 {
		t.Fatalf("stats %+v after a second key, %d builds; want a's entry evicted and b's memo built", st, builds)
	}
	if memo(a); builds != 3 {
		t.Errorf("%d builds after a's entry was evicted and searched again, want 3", builds)
	}

	uncached := opts
	uncached.Cache = nil
	lr, err := SearchLayer(a, uncached)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		lr.Memo(func() []byte { builds++; return nil })
	}
	if builds != 5 {
		t.Errorf("%d builds, want an uncached result to build on every call", builds)
	}
}

// TestMemoConcurrent races lookups of one entry under -race: every
// caller gets the entry's bytes, whichever build won.
func TestMemoConcurrent(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("l", 8, 8, 4, 4, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lr, err := SearchLayer(l, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := lr.Memo(func() []byte { return []byte("fixed") }); string(got) != "fixed" {
					t.Errorf("Memo = %q", got)
				}
			}
		}()
	}
	wg.Wait()
}
