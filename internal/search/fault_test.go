package search

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/verify"
)

func TestSearchLayerDegraded(t *testing.T) {
	opts := quickOpts(t, "arch1")
	l := layer.NewConv("l", 28, 28, 64, 64, 3)
	nominal, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nominal.Degraded != nil || nominal.DegradedRatio() != 0 {
		t.Fatal("degraded result without a fault plan")
	}

	// Kill one of arch1's two cores halfway through the nominal run.
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: nominal.BestOoO.LatencyCycles / 2}}}
	opts.FaultPlan = plan
	lr, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Degraded == nil || lr.FaultPlan != plan {
		t.Fatal("missing degraded result")
	}
	if lr.DegradedRatio() < 1 {
		t.Errorf("degraded ratio %f < 1", lr.DegradedRatio())
	}
	if lr.Degraded.LatencyCycles < lr.BestOoO.LatencyCycles {
		t.Errorf("degraded makespan %d < nominal %d", lr.Degraded.LatencyCycles, lr.BestOoO.LatencyCycles)
	}

	// The degraded schedule must verify under the fault plan.
	grid, err := tile.NewGrid(l, lr.BestOoO.Factors)
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(grid, model.New(opts.Arch))
	if err := verify.ScheduleFaults(gr, lr.Degraded, opts.Arch, plan); err != nil {
		t.Errorf("degraded schedule fails verification: %v", err)
	}
}

func TestSearchLayerRejectsLethalFaultPlan(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{
		{Core: 0, Cycle: 10}, {Core: 1, Cycle: 10},
	}}
	if _, err := SearchLayer(layer.NewConv("l", 14, 14, 32, 32, 3), opts); err == nil {
		t.Fatal("plan killing every core accepted")
	}
}

func TestFaultPlanChangesCacheKey(t *testing.T) {
	l := layer.NewConv("l", 28, 28, 64, 64, 3)
	opts := quickOpts(t, "arch1")
	base := CacheKey(l, opts)

	opts.FaultPlan = &fault.Plan{} // empty plan is the nominal key
	if CacheKey(l, opts) != base {
		t.Error("empty fault plan changed the cache key")
	}
	opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 500}}}
	k1 := CacheKey(l, opts)
	if k1 == base {
		t.Error("fault plan did not change the cache key")
	}
	opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 501}}}
	if CacheKey(l, opts) == k1 {
		t.Error("different fault plans share a cache key")
	}
}

func TestSearchNetworkDegraded(t *testing.T) {
	opts := quickOpts(t, "arch1")
	n := mustNetwork(t, "vgg16", 8)
	n.Layers = n.Layers[:2]
	opts.FaultPlan = &fault.Plan{Flaky: []fault.Flaky{{Core: 0, From: 0, To: 1 << 40, Slowdown: 2}}}
	nr, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	deg := nr.DegradedCycles()
	if deg <= 0 {
		t.Fatal("no degraded cycles with a fault plan")
	}
	oooLat, _, _, _ := nr.Totals()
	if deg < oooLat {
		t.Errorf("degraded total %d < nominal %d", deg, oooLat)
	}
	if nr.DegradedRatio() < 1 {
		t.Errorf("network degraded ratio %f < 1", nr.DegradedRatio())
	}
}
