package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
)

// requireSameNetworkResult asserts two network results are
// bit-identical in every schedule-relevant field: per-layer best
// cycles, traffic, tiling factors and winning static order, plus the
// end-to-end totals.
func requireSameNetworkResult(t *testing.T, want, got *NetworkResult) {
	t.Helper()
	if len(want.Layers) != len(got.Layers) {
		t.Fatalf("layer count %d vs %d", len(want.Layers), len(got.Layers))
	}
	for i, w := range want.Layers {
		g := got.Layers[i]
		if w.BestOoO.LatencyCycles != g.BestOoO.LatencyCycles ||
			w.BestOoO.TrafficBytes() != g.BestOoO.TrafficBytes() {
			t.Errorf("layer %s: OoO %d cyc / %d B vs %d cyc / %d B", w.Layer.Name,
				w.BestOoO.LatencyCycles, w.BestOoO.TrafficBytes(),
				g.BestOoO.LatencyCycles, g.BestOoO.TrafficBytes())
		}
		if w.BestOoO.Factors != g.BestOoO.Factors {
			t.Errorf("layer %s: winning tiling %v vs %v", w.Layer.Name, w.BestOoO.Factors, g.BestOoO.Factors)
		}
		if w.BestStatic.LatencyCycles != g.BestStatic.LatencyCycles ||
			w.BestStatic.TrafficBytes() != g.BestStatic.TrafficBytes() {
			t.Errorf("layer %s: static %d cyc / %d B vs %d cyc / %d B", w.Layer.Name,
				w.BestStatic.LatencyCycles, w.BestStatic.TrafficBytes(),
				g.BestStatic.LatencyCycles, g.BestStatic.TrafficBytes())
		}
		if w.BestStaticOrder.Name != g.BestStaticOrder.Name {
			t.Errorf("layer %s: static order %q vs %q", w.Layer.Name, w.BestStaticOrder.Name, g.BestStaticOrder.Name)
		}
	}
	wOoO, wStat, wOoOT, wStatT := want.Totals()
	gOoO, gStat, gOoOT, gStatT := got.Totals()
	if wOoO != gOoO || wStat != gStat || wOoOT != gOoOT || wStatT != gStatT {
		t.Errorf("totals (%d %d %d %d) vs (%d %d %d %d)",
			wOoO, wStat, wOoOT, wStatT, gOoO, gStat, gOoOT, gStatT)
	}
}

// TestPreemptedRequeueIsBitIdentical is the determinism acceptance
// property: a network search cancelled mid-way — as a preempted grant's
// context is, discarding partial incumbents and forgetting in-flight
// cache entries — then rerun to completion returns results
// bit-identical to a run that was never interrupted. This is what lets
// the serving layer preempt and requeue sweeps transparently.
func TestPreemptedRequeueIsBitIdentical(t *testing.T) {
	n := nets.Network{Name: "tiny", Layers: []layer.Conv{
		layer.NewConv("a1", 8, 8, 4, 4, 3),
		layer.NewConv("b", 8, 8, 4, 8, 3),
		layer.NewConv("a2", 8, 8, 4, 4, 3),
		layer.NewConv("c", 14, 14, 8, 8, 3),
	}}

	// Baseline: an uninterrupted run on a fresh cache.
	base := quickOpts(t, "arch1")
	base.Cache = NewCache()
	want, err := SearchNetwork(n, base)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from the k-th progress event, sweeping k so the abort lands
	// at different points of the search — including mid-layer, after
	// some tilings already completed.
	preempted := errors.New("preempted")
	for k := int64(1); k <= 7; k += 3 {
		opts := quickOpts(t, "arch1")
		opts.Cache = NewCache()
		ctx, cancel := context.WithCancelCause(context.Background())
		var events atomic.Int64
		opts.Progress = func(ProgressEvent) {
			if events.Add(1) == k {
				cancel(preempted)
			}
		}
		if _, err := SearchNetworkCtx(ctx, n, opts); !errors.Is(err, context.Canceled) || context.Cause(ctx) != preempted {
			t.Fatalf("k=%d: interrupted run = %v (cause %v), want context.Canceled by the preemption", k, err, context.Cause(ctx))
		}

		// Requeue: same cache, a live context — as the serving layer
		// does after re-admission.
		opts.Progress = nil
		got, err := SearchNetwork(n, opts)
		if err != nil {
			t.Fatalf("k=%d: requeued run failed: %v", k, err)
		}
		requireSameNetworkResult(t, want, got)
	}
}
