package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/tile"
)

// unkeptScheduleTiling is scheduleTiling with no sched.Config.Keep: every
// run that finishes hands out its schedule, and the strict keep after it
// alone decides what the tiling keeps.
func unkeptScheduleTiling(ctx context.Context, grid *tile.Grid, m model.Model, dataflows []loop.Dataflow, opts Options, inc *incumbents) (Candidate, int, error) {
	graph := dfg.Build(grid, m)
	base := opts.SchedConfig(m)
	metric := opts.Metric
	aborted := 0
	c := Candidate{Factors: grid.F}
	var oooInc, staticInc *incumbent
	if inc != nil {
		oooInc, staticInc = &inc.ooo, &inc.static
	}
	run := func(cfg sched.Config, in *incumbent, own *sched.Result) (*sched.Result, error) {
		if in != nil {
			target := in.value()
			if own != nil && better(metric.score(own), target) {
				target = metric.score(own)
			}
			cfg.Cutoff = func(cycles, bytes int64) bool { return better(target, metric.Score(cycles, bytes)) }
		}
		res, err := sched.Schedule(graph, cfg)
		if errors.Is(err, sched.ErrCutoff) {
			aborted++
		}
		return res, err
	}
	ooo, err := run(base, oooInc, nil)
	switch {
	case err == nil:
		c.OoO = ooo
	case !errors.Is(err, sched.ErrCutoff):
		return Candidate{}, aborted, err
	}
	var seen [][4]loop.Dim
	var hints []loop.Dataflow
	for i, df := range dataflows {
		if err := ctx.Err(); err != nil {
			return Candidate{}, aborted, err
		}
		seq := loop.Reduce(grid, df.Perm)
		if slices.Contains(seen, seq) {
			continue
		}
		seen = append(seen, seq)
		if opts.Budget.HintedOoO && i < maxOoOHints {
			hints = append(hints, df)
		}
		cfg := base
		cfg.Order = loop.Order(graph, df)
		if res, err := run(cfg, staticInc, nil); err == nil && metric.beats(res, c.Static) {
			c.Static, c.StaticOrder = res, df
		}
	}
	opOrder := loop.Reduce(grid, [4]loop.Dim{loop.OH, loop.OW, loop.OC, loop.IC})
	for _, df := range hints {
		if err := ctx.Err(); err != nil {
			return Candidate{}, aborted, err
		}
		if ooo != nil && c.OoO == ooo && ooo.HintRepeats() && loop.Reduce(grid, df.Perm) == opOrder {
			continue
		}
		cfg := base
		cfg.Hint = loop.Order(graph, df)
		if res, err := run(cfg, oooInc, c.OoO); err == nil && metric.beats(res, c.OoO) {
			c.OoO = res
		}
	}
	switch {
	case c.Static == nil && aborted == 0:
		return Candidate{}, aborted, fmt.Errorf("search: no static schedule for tiling %s", grid.F)
	case c.Static == nil && c.OoO == nil:
		return Candidate{}, aborted, errDominated
	}
	return c, aborted, nil
}

// TestKeepChangesNothing: a layer search whose finished runs are refused
// by the tiling's strict keep (sched.Config.Keep) before they copy out a
// schedule returns what the search that copies every finished run out
// and then drops the losers does — the best schedules, the winning
// dataflow, the candidate list, every effort counter and the degraded
// schedule — over random layers, budgets, metrics and machines, with
// dominance pruning on and off and with and without a fault plan, at
// one worker, where the effort counters repeat.
func TestKeepChangesNothing(t *testing.T) {
	cases := 12
	if testing.Short() {
		cases = 4
	}
	rng := rand.New(rand.NewSource(47))
	dims := []int{8, 14, 28}
	chans := []int{16, 32, 64, 96}
	budgets := []Budget{QuickBudget(), DefaultBudget()}
	budgets[1].MaxTilings = 6
	metrics := []Metric{{}, MetricMinTransfer(), {LatExp: 2, TrafficExp: 0.5}}
	var exhaustive, faulted, refused int
	for i := 0; i < cases; i++ {
		cfg, err := arch.Preset([]string{"arch1", "arch5"}[rng.Intn(2)])
		if err != nil {
			t.Fatal(err)
		}
		d := dims[rng.Intn(len(dims))]
		l := layer.NewConv("keep", d, d, chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))], 1+2*rng.Intn(2))
		opts := Options{
			Arch:             cfg,
			Budget:           budgets[rng.Intn(len(budgets))],
			Metric:           metrics[rng.Intn(len(metrics))],
			Workers:          1,
			DisableDominance: i%2 == 0,
		}
		if i%4 < 2 {
			opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: cfg.Cores - 1, Cycle: 1 << 12}}}
			faulted++
		}
		name := fmt.Sprintf("case %d (%s on %s, metric %+v, exhaustive %v, faults %v)",
			i, l, cfg.Name, opts.Metric, opts.DisableDominance, opts.FaultPlan)

		want, wantErr := searchLayerWith(context.Background(), l, opts, unkeptScheduleTiling)
		got, gotErr := searchLayerWith(context.Background(), l, opts, scheduleTiling)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: without keep %v, with %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got.BestOoO, want.BestOoO) || !reflect.DeepEqual(got.BestStatic, want.BestStatic) ||
			got.BestStaticOrder != want.BestStaticOrder || !reflect.DeepEqual(got.Degraded, want.Degraded) {
			t.Errorf("%s: best or degraded schedules differ", name)
		}
		if !reflect.DeepEqual(got.Candidates, want.Candidates) {
			t.Errorf("%s: candidate lists differ (%d vs %d candidates)", name, len(got.Candidates), len(want.Candidates))
		}
		if got.CandidatesEnumerated != want.CandidatesEnumerated || got.CandidatesPruned != want.CandidatesPruned ||
			got.SchedulesAborted != want.SchedulesAborted {
			t.Errorf("%s: effort %d/%d/%d with keep, %d/%d/%d without", name,
				got.CandidatesEnumerated, got.CandidatesPruned, got.SchedulesAborted,
				want.CandidatesEnumerated, want.CandidatesPruned, want.SchedulesAborted)
		}
		if opts.DisableDominance {
			exhaustive++
		}
		if refused == 0 {
			refused = refusedRuns(t, l, opts)
		}
	}
	t.Logf("%d cases (%d exhaustive, %d with faults); the first with a refused run had %d", cases, exhaustive, faulted, refused)
	if exhaustive == 0 || exhaustive == cases || faulted == 0 || faulted == cases || refused == 0 {
		t.Error("the draw missed one of: an exhaustive search, a pruned one, a fault plan, none, a refused run")
	}
}

// refusedRuns counts the static runs of l's exhaustive search that the
// keep refuses: distinct op sequences whose run finishes without beating
// the tiling's static schedule so far.
func refusedRuns(t *testing.T, l layer.Conv, opts Options) int {
	t.Helper()
	n := 0
	m := model.New(opts.Arch)
	for _, f := range Tilings(l, opts.Arch, opts.Budget) {
		grid, err := tile.NewGrid(l, f)
		if err != nil {
			t.Fatal(err)
		}
		graph := dfg.Build(grid, m)
		var best *sched.Result
		var seen [][4]loop.Dim
		for _, df := range opts.Budget.Dataflows {
			seq := loop.Reduce(grid, df.Perm)
			if slices.Contains(seen, seq) {
				continue
			}
			seen = append(seen, seq)
			cfg := opts.SchedConfig(m)
			cfg.Order = loop.Order(graph, df)
			if res, err := sched.Schedule(graph, cfg); err == nil {
				if !opts.Metric.beats(res, best) {
					n++
				} else {
					best = res
				}
			}
		}
	}
	return n
}
