//go:build !race

package search

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestCacheKeyAllocs holds the fingerprint to the allocations it needs:
// the returned string, and nothing else while the key fits the stack
// buffer it is assembled in.
func TestCacheKeyAllocs(t *testing.T) {
	l := layer.NewConv("l", 14, 14, 64, 64, 3)
	opts := quickOpts(t, "arch1")
	if n := testing.AllocsPerRun(100, func() { _ = CacheKey(l, opts) }); n > 1 {
		t.Errorf("CacheKey allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = NetworkKey("vgg16", 8, opts) }); n > 1 {
		t.Errorf("NetworkKey allocates %v times, want 1", n)
	}
}

// TestBoundAllocs holds bounding a layer's tilings to storage that does
// not grow with their number: a layer search whose every tiling is
// dominated at once, vgg16 conv3_1 on arch1 under the default budget
// (24 tilings), makes 4 allocations — the enumeration's sample and
// ranks, the result and the error. Each tiling is bounded in closed form
// from cuts on the stack; no grid is built. The records, their order,
// the options and incumbents the workers share and the worker loop are
// pooled. The collector is off while it measures, so that a collection
// does not empty the pools the search draws on.
func TestBoundAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Layer("conv3_1")
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(t, "arch1")
	opts.Budget = DefaultBudget()
	opts.Workers = 1
	dominated := func(context.Context, *tile.Grid, model.Model, []loop.Dataflow, Options, *incumbents) (Candidate, int, error) {
		return Candidate{}, 0, errDominated
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = searchLayerWith(context.Background(), l, opts, dominated) }); n > 4 {
		t.Errorf("bounding %d tilings allocates %v times, ceiling 4", len(Tilings(l, opts.Arch, opts.Budget)), n)
	}
}

// warmBytes returns the bytes the second of two calls of f allocates:
// the steady state, once f has filled the pools it draws on.
func warmBytes(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSearchLayerBytes holds one warm exhaustive search of a pressured
// layer — vgg16/4 conv2_2 on arch5 (four cores), quick budget,
// DisableDominance, one worker, so every run finishes and the keep
// refuses each one that loses its tiling — to a byte ceiling: 617 232
// bytes, against 890 928 when every finished run copies its records out
// before the keep drops it. The collector is off while it measures.
func TestSearchLayerBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Scale(4).Layer("conv2_2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Preset("arch5")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Arch: a, Budget: QuickBudget(), DisableDominance: true, Workers: 1}
	const ceiling = 680_000
	if b := warmBytes(func() {
		if _, err := SearchLayer(l, opts); err != nil {
			t.Fatal(err)
		}
	}); b > ceiling {
		t.Errorf("a warm exhaustive search of %s allocates %d bytes, ceiling %d", l.Name, b, ceiling)
	}
}

// TestFusionPassBytes holds a warm fusion pass over three fusable layers
// on arch5 — a segment accepted over two layers, then grown to three —
// to a byte ceiling: 193 952 bytes, against 469 248 when each candidate
// segment's graph is built in fresh storage instead of a pooled one.
func TestFusionPassBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := fusePairNet()
	n.Layers = append(n.Layers, layer.NewConv("d", 7, 7, 512, 512, 3))
	opts := fuseOpts(t)
	opts.Workers = 1
	base, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.FuseDepth = 2
	var segments int
	const ceiling = 240_000
	if b := warmBytes(func() {
		nr := &NetworkResult{Layers: base.Layers}
		if err := fuseNetwork(context.Background(), nr, opts); err != nil {
			t.Fatal(err)
		}
		segments = len(nr.Segments)
	}); b > ceiling {
		t.Errorf("a warm fusion pass allocates %d bytes, ceiling %d", b, ceiling)
	}
	if segments != 1 {
		t.Errorf("the pass fused %d segments, want 1", segments)
	}
}
