package search

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestLowerBoundNeverExceedsSimulated checks the soundness property the
// pruner relies on: for every tiling, LowerBound is at most the
// simulated latency and traffic of ANY schedule the engine produces —
// out-of-order, static, or hinted, under every priority and memory
// policy.
func TestLowerBoundNeverExceedsSimulated(t *testing.T) {
	for _, archName := range []string{"arch1", "arch5"} {
		cfg, err := arch.Preset(archName)
		if err != nil {
			t.Fatal(err)
		}
		m := model.New(cfg)
		l := layer.NewConv("lb", 28, 28, 64, 96, 3)
		tilings := Tilings(l, cfg, QuickBudget())
		if len(tilings) == 0 {
			t.Fatalf("%s: no tilings", archName)
		}
		for _, f := range tilings {
			grid, err := tile.NewGrid(l, f)
			if err != nil {
				t.Fatal(err)
			}
			bound := LowerBound(grid, m, cfg.Cores)
			if bound.Cycles <= 0 || bound.Traffic <= 0 {
				t.Fatalf("%s/%s: degenerate bound %+v", archName, f, bound)
			}
			graph := dfg.Build(grid, m)

			check := func(kind string, res *sched.Result, err error) {
				t.Helper()
				if err != nil {
					return // unschedulable configurations are not the bound's problem
				}
				if bound.Cycles > res.LatencyCycles {
					t.Errorf("%s/%s %s: bound cycles %d > simulated %d",
						archName, f, kind, bound.Cycles, res.LatencyCycles)
				}
				if bound.Traffic > res.TrafficBytes() {
					t.Errorf("%s/%s %s: bound traffic %d > simulated %d",
						archName, f, kind, bound.Traffic, res.TrafficBytes())
				}
			}

			for _, prio := range []sched.Priority{sched.PriorityDefault, sched.PriorityMinTransfer, sched.PriorityMinSpill, sched.PriorityChainDepth} {
				for _, pol := range []spm.Policy{spm.PolicyFlexer, spm.PolicyFirstFit, spm.PolicySmallestFirst} {
					base := sched.Config{Arch: cfg, Model: m, Priority: prio, MemPolicy: pol}
					res, err := sched.Schedule(graph, base)
					check("ooo", res, err)
				}
			}
			base := sched.Config{Arch: cfg, Model: m}
			for _, df := range loop.Canonical() {
				order := loop.Order(graph, df)
				scfg := base
				scfg.Order = order
				res, err := sched.Schedule(graph, scfg)
				check("static/"+df.Name, res, err)
				hcfg := base
				hcfg.Hint = order
				hres, herr := sched.Schedule(graph, hcfg)
				check("hinted/"+df.Name, hres, herr)
			}
		}
	}
}

// walkBound is LowerBound as a walk of the grid: every tile's size
// summed (tile.Grid.SumTiles), the op cycles one op per channel block
// pair over the whole output plus the other ops' fills, and the chain
// down the first output tile's steps.
func walkBound(g *tile.Grid, m model.Model, cores int) Bound {
	var ops, dma, traffic int64
	for oc := range g.NOC {
		for ic := range g.NIC {
			_, _, ochs, ichs := g.OpDims(0, 0, oc, ic)
			ops += m.ConvCycles(g.Layer.OutH(), g.Layer.OutW(), ochs, ichs, g.Layer.KerH, g.Layer.KerW)
		}
	}
	ops += int64(g.NumOps()-g.NOC*g.NIC) * m.FillCycles()
	for k := range tile.NumKinds {
		bytes, cycles := g.SumTiles(tile.Kind(k), m.TransferCycles)
		dma, traffic = dma+cycles, traffic+bytes
	}
	chain := m.TransferCycles(g.Size(tile.ID{Kind: tile.Out, A: 0, B: 0, C: 0}))
	for ic := range g.NIC {
		rows, cols, ochs, ichs := g.OpDims(0, 0, 0, ic)
		chain += m.ConvCycles(rows, cols, ochs, ichs, g.Layer.KerH, g.Layer.KerW)
	}
	return Bound{Cycles: max((ops+int64(cores)-1)/int64(cores), chain, dma), Traffic: traffic}
}

// TestLowerBoundIsTheWalk holds the closed form, chain included, to the
// grid walk on the viable tilings of vgg16/8 and squeezenet/8 (strided
// and padded layers, remainder blocks) on a 2-core and a 4-core preset,
// and LayerFloor, which walks every value of each dimension, to at most
// the lowest of them: to the lowest of every viable tiling on squeezenet's
// first layer.
func TestLowerBoundIsTheWalk(t *testing.T) {
	var g *tile.Grid
	for _, archName := range []string{"arch1", "arch5"} {
		cfg, err := arch.Preset(archName)
		if err != nil {
			t.Fatal(err)
		}
		m := model.New(cfg)
		for _, net := range []string{"vgg16", "squeezenet"} {
			n, err := nets.ByName(net)
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range n.Scale(8).Layers {
				lim := tile.EnumLimits{SPMBytes: cfg.SPMBytes, Cores: cfg.Cores}
				if net == "squeezenet" && i == 0 {
					lim.MaxValuesPerDim = -1
				}
				var lo Bound
				for _, f := range tile.Enumerate(l, lim) {
					if g, err = tile.NewGridInto(g, l, f); err != nil {
						t.Fatal(err)
					}
					got, want := LowerBound(g, m, cfg.Cores), walkBound(g, m, cfg.Cores)
					if got != want {
						t.Fatalf("%s %s %s: closed form %+v, walk %+v", archName, l, f, got, want)
					}
					if lo == (Bound{}) {
						lo = want
					}
					lo = Bound{Cycles: min(lo.Cycles, want.Cycles), Traffic: min(lo.Traffic, want.Traffic)}
				}
				got := LayerFloor(l, cfg, Budget{})
				if lo == (Bound{}) || got.Cycles > lo.Cycles || got.Traffic > lo.Traffic || lim.MaxValuesPerDim < 0 && got != lo {
					t.Errorf("%s %s: LayerFloor %+v, lowest walked %+v", archName, l, got, lo)
				}
			}
		}
	}
}

// TestDominancePruningMatchesExhaustive is the pruning-correctness
// property: across seeded layers, budgets, metrics, and fault plans,
// the pruned search returns bit-identical best OoO and static schedules
// (cycles, traffic, and dataflow choice) to the exhaustive search —
// pruning may only skip work, never change the answer. It holds because
// the bound and the run floors never exceed what a schedule achieves
// (TestLowerBoundNeverExceedsSimulated, TestFloors); every comparison is
// strict, so a tie is never pruned and keeps its tie-break; results are
// reduced in enumeration order whatever order tilings ran in; pruning
// engages only for a metric monotone in both axes; and each run is cut
// against its own axis — a static run the static incumbent, a hinted one
// the lower of the OoO incumbent and its tiling's best OoO so far — so
// running the static orders before the hints changes nothing.
func TestDominancePruningMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg, err := arch.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{8, 14, 28}
	chans := []int{16, 32, 64, 96}
	budgets := []Budget{QuickBudget(), DefaultBudget()}
	budgets[1].MaxTilings = 8 // keep the exhaustive reference affordable
	metrics := []Metric{{}, MetricDefault(), MetricMinTransfer(), {LatExp: 2, TrafficExp: 0.5}}

	for i := 0; i < 6; i++ {
		d := dims[rng.Intn(len(dims))]
		l := layer.NewConv("prop", d, d, chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))], 3)
		opts := Options{
			Arch:   cfg,
			Budget: budgets[rng.Intn(len(budgets))],
			Metric: metrics[rng.Intn(len(metrics))],
		}
		opts.Budget.HintedOoO = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: cfg.Cores - 1, Cycle: 1 << 16}}}
		}

		exOpts := opts
		exOpts.DisableDominance = true
		exhaustive, exErr := SearchLayer(l, exOpts)
		pruned, prErr := SearchLayer(l, opts)
		if (exErr == nil) != (prErr == nil) {
			t.Fatalf("case %d (%s): error mismatch: exhaustive=%v pruned=%v", i, l, exErr, prErr)
		}
		if exErr != nil {
			continue
		}
		if pruned.BestOoO.LatencyCycles != exhaustive.BestOoO.LatencyCycles ||
			pruned.BestOoO.TrafficBytes() != exhaustive.BestOoO.TrafficBytes() {
			t.Errorf("case %d (%s, metric %+v): best OoO differs: pruned %d/%d, exhaustive %d/%d",
				i, l, opts.Metric,
				pruned.BestOoO.LatencyCycles, pruned.BestOoO.TrafficBytes(),
				exhaustive.BestOoO.LatencyCycles, exhaustive.BestOoO.TrafficBytes())
		}
		if pruned.BestStatic.LatencyCycles != exhaustive.BestStatic.LatencyCycles ||
			pruned.BestStatic.TrafficBytes() != exhaustive.BestStatic.TrafficBytes() ||
			pruned.BestStaticOrder.Name != exhaustive.BestStaticOrder.Name {
			t.Errorf("case %d (%s, metric %+v): best static differs: pruned %d/%d (%s), exhaustive %d/%d (%s)",
				i, l, opts.Metric,
				pruned.BestStatic.LatencyCycles, pruned.BestStatic.TrafficBytes(), pruned.BestStaticOrder.Name,
				exhaustive.BestStatic.LatencyCycles, exhaustive.BestStatic.TrafficBytes(), exhaustive.BestStaticOrder.Name)
		}
		if (pruned.Degraded == nil) != (exhaustive.Degraded == nil) {
			t.Errorf("case %d: degraded presence differs", i)
		} else if pruned.Degraded != nil && pruned.Degraded.LatencyCycles != exhaustive.Degraded.LatencyCycles {
			t.Errorf("case %d: degraded cycles differ: %d vs %d",
				i, pruned.Degraded.LatencyCycles, exhaustive.Degraded.LatencyCycles)
		}
		if pruned.CandidatesEnumerated != exhaustive.CandidatesEnumerated {
			t.Errorf("case %d: enumerated %d vs %d", i,
				pruned.CandidatesEnumerated, exhaustive.CandidatesEnumerated)
		}
		if exhaustive.CandidatesPruned != 0 || exhaustive.SchedulesAborted != 0 {
			t.Errorf("case %d: exhaustive search pruned %d aborted %d, want 0/0",
				i, exhaustive.CandidatesPruned, exhaustive.SchedulesAborted)
		}
	}
}

// TestPruningReportsEffort checks the effort counters: a pruned search
// on a layer with many tilings should actually prune or abort
// something, and the pruned counter must agree with the shrunk
// candidate list.
func TestPruningReportsEffort(t *testing.T) {
	cfg, err := arch.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	b := DefaultBudget()
	b.MaxTilings = 16
	l := layer.NewConv("effort", 28, 28, 64, 96, 3)
	lr, err := SearchLayer(l, Options{Arch: cfg, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if lr.CandidatesEnumerated <= 0 {
		t.Fatal("no enumeration count")
	}
	if lr.CandidatesPruned == 0 && lr.SchedulesAborted == 0 {
		t.Error("pruned search did no pruning and no cutoffs on a 16-tiling layer")
	}
	if lr.CandidatesPruned > lr.CandidatesEnumerated {
		t.Errorf("pruned %d > enumerated %d", lr.CandidatesPruned, lr.CandidatesEnumerated)
	}
	if got := len(lr.Candidates) + lr.CandidatesPruned; got > lr.CandidatesEnumerated {
		t.Errorf("candidates+pruned = %d > enumerated %d", got, lr.CandidatesEnumerated)
	}
}

// TestMetricMonotone pins the monotonicity gate: dominance pruning must
// stay off for metrics that reward higher latency or traffic.
func TestMetricMonotone(t *testing.T) {
	cases := []struct {
		m    Metric
		want bool
	}{
		{Metric{}, true},
		{MetricDefault(), true},
		{MetricMinTransfer(), true},
		{Metric{LatExp: 2, TrafficExp: 0}, true},
		{Metric{LatExp: -1, TrafficExp: 1}, false},
		{Metric{LatExp: 1, TrafficExp: -0.5}, false},
		{Metric{LatExp: math.NaN(), TrafficExp: 1}, false},
	}
	for _, c := range cases {
		if got := c.m.monotone(); got != c.want {
			t.Errorf("monotone(%+v) = %v, want %v", c.m, got, c.want)
		}
	}
}

// TestSearchEffortRepeatsWithOneWorker: tilings take their worker slot
// in ascending-bound order, so with one worker every tiling prunes
// against the same incumbents on every run and the effort counters —
// which depend on that order — repeat exactly. The answer never
// depended on the order: it equals the exhaustive search's.
func TestSearchEffortRepeatsWithOneWorker(t *testing.T) {
	cfg, err := arch.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	b := QuickBudget()
	b.MaxTilings = 12
	l := layer.NewConv("effort", 28, 28, 64, 96, 3)
	opts := Options{Arch: cfg, Budget: b, Workers: 1}

	type effort struct{ pruned, aborted, sets int }
	measure := func(lr *LayerResult) effort {
		e := effort{pruned: lr.CandidatesPruned, aborted: lr.SchedulesAborted}
		for _, c := range lr.Candidates {
			e.sets += c.OoO.SetsEvaluated + c.Static.SetsEvaluated
		}
		return e
	}
	exOpts := opts
	exOpts.DisableDominance = true
	exhaustive, err := SearchLayer(l, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	var first effort
	for run := 0; run < 10; run++ {
		lr, err := SearchLayer(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := measure(lr)
		if run == 0 {
			first = got
			if got.pruned == 0 && got.aborted == 0 {
				t.Fatal("layer exercises no pruning; the test would prove nothing")
			}
		} else if got != first {
			t.Errorf("run %d: effort %+v, run 0 had %+v", run, got, first)
		}
		if !reflect.DeepEqual(lr.BestOoO, exhaustive.BestOoO) || !reflect.DeepEqual(lr.BestStatic, exhaustive.BestStatic) {
			t.Errorf("run %d: best schedules differ from the exhaustive search's", run)
		}
	}
}
