package main

import (
	"fmt"

	"github.com/flexer-sched/flexer"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/tile"
)

// hintedDataflows mirrors the search's unexported maxOoOHints: only
// the first three dataflows also seed a hinted out-of-order run.
const hintedDataflows = 3

// schedConfig derives the scheduler configuration a search uses from
// its options, as flexer.go and internal/search do.
func schedConfig(opts flexer.Options, m model.Model) sched.Config {
	return sched.Config{
		Arch:             opts.Arch,
		Model:            m,
		Priority:         opts.Priority,
		MemPolicy:        opts.MemPolicy,
		DisableInPlace:   opts.DisableInPlace,
		DisablePruning:   opts.DisablePruning,
		MaxReadyWindow:   opts.Budget.MaxReadyWindow,
		MaxCandidateSets: opts.Budget.MaxCandidateSets,
	}
}

// replayCounts is the work one replay did, counted where it happened.
type replayCounts struct {
	Tilings, Ops                         int
	Schedules, SetsEvaluated, SetsPruned int
	SimCycles, OpsScheduled              int64
}

// replayed is the outcome of replaying one layer search from outside.
type replayed struct {
	BestOoO, BestStatic *sched.Result
	// Graph is the DFG of BestOoO's tiling.
	Graph *dfg.Graph
}

// replayLayer runs Algorithm 1's per-layer loop through the exported
// functions of each layer, one span per call: enumerate tilings, grid
// and bound each, build its DFG, schedule it out of order, and for
// every dataflow order it, schedule it statically and (for the first
// three) as a hinted out-of-order run. It is the exhaustive search: no
// incumbent, no cutoff. Dominance pruning never changes the best
// schedules, so the replay must agree with the facade's answer, which
// is how the caller checks that timing from outside measures the same
// work.
func replayLayer(rec *recorder, l flexer.Conv, opts flexer.Options, n *replayCounts) (replayed, error) {
	root := rec.begin("search.layer")
	defer rec.end(root)

	b := opts.Budget
	lim := tile.EnumLimits{SPMBytes: opts.Arch.SPMBytes, Cores: opts.Arch.Cores,
		MaxOps: b.MaxOps, MaxTilings: b.MaxTilings, MaxValuesPerDim: b.MaxValuesPerDim}
	if lim.MaxOps <= 0 {
		lim.MaxOps = tile.DefaultMaxOps
	}
	var tilings []tile.Factors
	for i := 0; i < 8 && len(tilings) == 0; i++ {
		sp := rec.begin("tile.Enumerate")
		tilings = tile.Enumerate(l, lim)
		rec.end(sp)
		lim.MaxOps *= 2
		lim.MaxValuesPerDim += 4
	}
	dataflows := b.Dataflows
	if dataflows == nil {
		dataflows = loop.Canonical()
	}
	m := model.New(opts.Arch)
	base := schedConfig(opts, m)
	score := func(r *sched.Result) float64 { return opts.Metric.Score(r.LatencyCycles, r.TrafficBytes()) }
	schedule := func(name string, gr *dfg.Graph, cfg sched.Config) (*sched.Result, error) {
		sp := rec.begin(name)
		r, err := sched.Schedule(gr, cfg)
		rec.end(sp)
		if err == nil {
			n.Schedules++
			n.SetsEvaluated += r.SetsEvaluated
			n.SetsPruned += r.SetsPruned
			n.SimCycles += r.LatencyCycles
			n.OpsScheduled += int64(len(r.OpRecords))
		}
		return r, err
	}

	var out replayed
	n.Tilings += len(tilings)
	for _, f := range tilings {
		sp := rec.begin("tile.NewGrid")
		grid, err := tile.NewGrid(l, f)
		rec.end(sp)
		if err != nil {
			continue
		}
		sp = rec.begin("search.LowerBound")
		_ = search.LowerBound(grid, m, opts.Arch.Cores)
		rec.end(sp)
		sp = rec.begin("dfg.Build")
		graph := dfg.Build(grid, m)
		rec.end(sp)
		n.Ops += len(graph.Ops)

		ooo, err := schedule("sched.ooo", graph, base)
		if err != nil {
			continue // unschedulable tiling: skipped, as the search does
		}
		var static *sched.Result
		for i, df := range dataflows {
			sp = rec.begin("loop.Order")
			order := loop.Order(graph, df)
			rec.end(sp)
			cfg := base
			cfg.Order = order
			if r, err := schedule("sched.static", graph, cfg); err == nil && (static == nil || score(r) < score(static)) {
				static = r
			}
			if b.HintedOoO && i < hintedDataflows {
				cfg := base
				cfg.Hint = order
				if r, err := schedule("sched.hinted", graph, cfg); err == nil && score(r) < score(ooo) {
					ooo = r
				}
			}
		}
		if out.BestOoO == nil || score(ooo) < score(out.BestOoO) {
			out.BestOoO, out.Graph = ooo, graph
		}
		if static != nil && (out.BestStatic == nil || score(static) < score(out.BestStatic)) {
			out.BestStatic = static
		}
	}
	if out.BestOoO == nil || out.BestStatic == nil {
		return out, fmt.Errorf("replay of %s on %s found no schedule", l.Name, opts.Arch.Name)
	}
	return out, nil
}

// agrees reports whether a replay found the facade's best schedules.
func (r replayed) agrees(lr *flexer.LayerResult) error {
	if totalsOfSchedule(r.BestOoO) != totalsOfSchedule(lr.BestOoO) {
		return fmt.Errorf("%s: replay best OoO %+v, facade %+v", lr.Layer.Name, totalsOfSchedule(r.BestOoO), totalsOfSchedule(lr.BestOoO))
	}
	if totalsOfSchedule(r.BestStatic) != totalsOfSchedule(lr.BestStatic) {
		return fmt.Errorf("%s: replay best static %+v, facade %+v", lr.Layer.Name, totalsOfSchedule(r.BestStatic), totalsOfSchedule(lr.BestStatic))
	}
	return nil
}
