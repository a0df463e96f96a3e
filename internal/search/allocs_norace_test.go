//go:build !race

package search

import (
	"context"
	"runtime/debug"
	"testing"

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
// (24 tilings), makes 15 allocations — the enumeration's sample and
// ranks, one record per tiling and their order, the options and
// incumbents its workers share, the worker pool, the result and the
// error. Each tiling is bounded in closed form from cuts on the stack;
// no grid is built. The collector is off while it measures, so that a
// collection does not empty the pools the search draws on.
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
	if n := testing.AllocsPerRun(20, func() { _, _ = searchLayerWith(context.Background(), l, opts, dominated) }); n > 15 {
		t.Errorf("bounding %d tilings allocates %v times, ceiling 15", len(Tilings(l, opts.Arch, opts.Budget)), n)
	}
}
