package search

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
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
	l, err := mustNetwork(b, "vgg16", 2).Layer("conv3_1")
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

var sinkBound Bound

// BenchmarkLowerBound bounds every viable tiling of full-size vgg16
// conv3_1 on arch5 at the default budget's 10 values per dimension, no
// sample: by walking a grid of each (walkBound, what the search did),
// and in closed form from each tiling's cuts (what it does). ns/tiling
// is one tiling's share.
func BenchmarkLowerBound(b *testing.B) {
	l, err := mustNetwork(b, "vgg16", 1).Layer("conv3_1")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := arch.Preset("arch5")
	if err != nil {
		b.Fatal(err)
	}
	m := model.New(cfg)
	tilings := tile.Enumerate(l, tile.EnumLimits{SPMBytes: cfg.SPMBytes, Cores: cfg.Cores, MaxValuesPerDim: 10})
	perTiling := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tilings)), "ns/tiling")
	}
	b.Run("grid", func(b *testing.B) {
		var g *tile.Grid
		for range b.N {
			for _, f := range tilings {
				g, _ = tile.NewGridInto(g, l, f)
				sinkBound = walkBound(g, m, cfg.Cores)
			}
		}
		perTiling(b)
	})
	b.Run("closed", func(b *testing.B) {
		var classes [16]tile.Class
		for range b.N {
			for _, f := range tilings {
				c, _ := tile.CutsOf(l, f, classes[:0])
				sinkBound = boundOf(l, &c, m, cfg.Cores)
			}
		}
		perTiling(b)
	})
}
