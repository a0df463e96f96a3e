package search

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
)

func benchOpts(b *testing.B, archName string) Options {
	b.Helper()
	cfg, err := arch.Preset(archName)
	if err != nil {
		b.Fatal(err)
	}
	return Options{Arch: cfg, Budget: QuickBudget()}
}

// BenchmarkSearchLayerQuick measures one uncached quick-budget layer
// search end to end (tiling enumeration, OoO scheduling, baselines).
func BenchmarkSearchLayerQuick(b *testing.B) {
	opts := benchOpts(b, "arch1")
	l := layer.NewConv("bench", 14, 14, 64, 64, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SearchLayer(l, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchLayerPressured is the regime the look-ahead cutoff is
// for: vgg16/2's conv3_1 on arch5, whose scratchpad the layer's tiles
// overflow, so candidate schedules differ in traffic and most runs end
// up dominated. One worker, so the incumbents — and the work — repeat.
func BenchmarkSearchLayerPressured(b *testing.B) {
	l, err := nets.VGG16().Scale(2).Layer("conv3_1")
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range BudgetNames() {
		b.Run(budget, func(b *testing.B) {
			opts := benchOpts(b, "arch5")
			opts.Workers = 1
			if opts.Budget, err = BudgetByName(budget); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SearchLayer(l, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchLayerCached measures the warm-cache fast path: the
// same request served from the result cache.
func BenchmarkSearchLayerCached(b *testing.B) {
	opts := benchOpts(b, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("bench", 14, 14, 64, 64, 3)
	if _, err := SearchLayer(l, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchLayer(l, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheLookupParallel measures hits on the cache's one lock
// from every P (run it with -cpu 1,2,...): 64 completed entries under
// real keys, looked up round-robin from each goroutine.
func BenchmarkCacheLookupParallel(b *testing.B) {
	opts := benchOpts(b, "arch1")
	c := NewCache()
	var keys []string
	for k := 0; k < 64; k++ {
		key := CacheKey(layer.NewConv("bench", 14, 14, 64, 64+k, 3), opts)
		c.insertCompleted(&cacheEntry{key: key, lr: &LayerResult{}})
		keys = append(keys, key)
	}
	l := layer.NewConv("bench", 14, 14, 64, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if c.Lookup(keys[i%len(keys)], l, nil) == nil {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkCacheKey measures fingerprinting a layer + options into the
// coalescing key — this runs on every request, hit or miss.
func BenchmarkCacheKey(b *testing.B) {
	opts := benchOpts(b, "arch1")
	l := layer.NewConv("bench", 14, 14, 64, 64, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CacheKey(l, opts)
	}
}
