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
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/tile"
)

// oracleScheduleTiling is scheduleTiling without the repeat skip: every
// dataflow of the list gets its static run and, by its index, its
// hinted run.
func oracleScheduleTiling(ctx context.Context, grid *tile.Grid, m model.Model, dataflows []loop.Dataflow, opts Options, inc *incumbents) (Candidate, int, error) {
	f := grid.F
	graph := dfg.Build(grid, m)
	base := opts.SchedConfig(m)
	metric := opts.Metric
	aborted := 0
	c := Candidate{Factors: f}
	over := func(target float64) func(cycles, bytes int64) bool {
		return func(cycles, bytes int64) bool { return metric.Score(cycles, bytes) > target }
	}
	cutoffRun := func(graph *dfg.Graph, cfg sched.Config, aborted *int) (*sched.Result, error) {
		res, err := sched.Schedule(graph, cfg)
		if err != nil && errors.Is(err, sched.ErrCutoff) {
			*aborted++
		}
		return res, err
	}

	ocfg := base
	if inc != nil {
		ocfg.Cutoff = over(inc.ooo.value())
	}
	ooo, err := sched.Schedule(graph, ocfg)
	switch {
	case err == nil:
		c.OoO = ooo
	case errors.Is(err, sched.ErrCutoff):
		aborted++
	default:
		return Candidate{}, aborted, err
	}

	for i, df := range dataflows {
		if err := ctx.Err(); err != nil {
			return Candidate{}, aborted, err
		}
		order := loop.Order(graph, df)
		cfg := base
		cfg.Order = order
		if inc != nil {
			cfg.Cutoff = over(inc.static.value())
		}
		res, err := cutoffRun(graph, cfg, &aborted)
		if err == nil {
			if c.Static == nil || metric.Score(res.LatencyCycles, res.TrafficBytes()) <
				metric.Score(c.Static.LatencyCycles, c.Static.TrafficBytes()) {
				c.Static = res
				c.StaticOrder = df
			}
		}
		if opts.Budget.HintedOoO && i < maxOoOHints {
			hcfg := base
			hcfg.Hint = order
			if inc != nil {
				target := inc.ooo.value()
				if c.OoO != nil {
					if s := metric.Score(c.OoO.LatencyCycles, c.OoO.TrafficBytes()); s < target {
						target = s
					}
				}
				hcfg.Cutoff = over(target)
			}
			if h, err := cutoffRun(graph, hcfg, &aborted); err == nil &&
				(c.OoO == nil || metric.Score(h.LatencyCycles, h.TrafficBytes()) <
					metric.Score(c.OoO.LatencyCycles, c.OoO.TrafficBytes())) {
				c.OoO = h
			}
		}
	}
	if c.OoO == nil && c.Static == nil {
		if aborted > 0 {
			return Candidate{}, aborted, errDominated
		}
		return Candidate{}, aborted, fmt.Errorf("search: no static schedule for tiling %s", f)
	}
	if c.Static == nil && aborted == 0 {
		return Candidate{}, aborted, fmt.Errorf("search: no static schedule for tiling %s", f)
	}
	return c, aborted, nil
}

// TestRepeatedSequencesChangeNothing: the layer search that runs each
// distinct op sequence of a tiling once returns what the search running
// every dataflow of the list does — the best schedules and the winning
// dataflow always, and the candidate list whenever it is determined at
// all (one worker, or nothing pruned) — over random layers, budgets,
// metrics and machines, with one and four workers, with and without
// dominance pruning, and with dataflow lists that repeat entries
// outright, inside and beyond the hint-eligible first three.
func TestRepeatedSequencesChangeNothing(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(23))
	dims := []int{8, 14, 28}
	chans := []int{16, 32, 64, 96}
	budgets := []Budget{QuickBudget(), DefaultBudget()}
	budgets[1].MaxTilings = 8 // keep the un-deduplicated exhaustive reference affordable
	metrics := []Metric{{}, MetricDefault(), MetricMinTransfer(), {LatExp: 2, TrafficExp: 0.5}}
	all := loop.All()
	lists := [][]loop.Dataflow{
		nil, // the budget's own
		{all[3], all[3], all[17], all[3], all[9], all[17], all[0]},
		append(append(slices.Clone(loop.Canonical()), loop.Canonical()...), all[5]),
	}
	var runs, runsSaved, exhaustive, pruned int
	for i := 0; i < cases; i++ {
		cfg, err := arch.Preset([]string{"arch1", "arch5"}[rng.Intn(2)])
		if err != nil {
			t.Fatal(err)
		}
		d := dims[rng.Intn(len(dims))]
		l := layer.NewConv("prop", d, d, chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))], 1+2*rng.Intn(2))
		opts := Options{
			Arch:             cfg,
			Budget:           budgets[rng.Intn(len(budgets))],
			Metric:           metrics[rng.Intn(len(metrics))],
			Workers:          1 + 3*rng.Intn(2),
			DisableDominance: i%2 == 0,
		}
		opts.Budget.HintedOoO = rng.Intn(3) > 0
		if dfs := lists[rng.Intn(len(lists))]; dfs != nil {
			opts.Budget.Dataflows = dfs
		}
		name := fmt.Sprintf("case %d (%s on %s, %d dataflows, metric %+v, %d workers, exhaustive %v)",
			i, l, cfg.Name, len(opts.Budget.Dataflows), opts.Metric, opts.Workers, opts.DisableDominance)

		want, wantErr := searchLayerWith(context.Background(), l, opts, oracleScheduleTiling)
		got, gotErr := SearchLayer(l, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: every dataflow run %v, every sequence once %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got.BestOoO, want.BestOoO) || !reflect.DeepEqual(got.BestStatic, want.BestStatic) ||
			got.BestStaticOrder != want.BestStaticOrder {
			t.Errorf("%s: best schedules differ: OoO %d cycles / %d bytes vs %d / %d, static %d / %d %v vs %d / %d %v", name,
				got.BestOoO.LatencyCycles, got.BestOoO.TrafficBytes(), want.BestOoO.LatencyCycles, want.BestOoO.TrafficBytes(),
				got.BestStatic.LatencyCycles, got.BestStatic.TrafficBytes(), got.BestStaticOrder,
				want.BestStatic.LatencyCycles, want.BestStatic.TrafficBytes(), want.BestStaticOrder)
		}
		if got.CandidatesEnumerated != want.CandidatesEnumerated {
			t.Errorf("%s: enumerated %d tilings vs %d", name, got.CandidatesEnumerated, want.CandidatesEnumerated)
		}
		if opts.DisableDominance || opts.Workers == 1 {
			if !reflect.DeepEqual(got.Candidates, want.Candidates) {
				t.Errorf("%s: candidate lists differ (%d vs %d candidates)", name, len(got.Candidates), len(want.Candidates))
			}
		}
		if opts.DisableDominance {
			exhaustive++
			if got.CandidatesPruned != 0 || got.SchedulesAborted != 0 {
				t.Errorf("%s: exhaustive search pruned %d aborted %d, want 0/0", name, got.CandidatesPruned, got.SchedulesAborted)
			}
		} else {
			pruned++
		}

		// How many runs of the list the distinct sequences save, over
		// the tilings searched.
		dataflows := opts.Budget.Dataflows
		for _, f := range Tilings(l, cfg, opts.Budget) {
			grid, err := tile.NewGrid(l, f)
			if err != nil {
				t.Fatal(err)
			}
			var seen [][4]loop.Dim
			for _, df := range dataflows {
				runs++
				if seq := loop.Reduce(grid, df.Perm); slices.Contains(seen, seq) {
					runsSaved++
				} else {
					seen = append(seen, seq)
				}
			}
		}
	}
	t.Logf("%d cases (%d exhaustive, %d pruned): %d of %d static runs repeat an earlier sequence of their tiling", cases, exhaustive, pruned, runsSaved, runs)
	if runsSaved == 0 || runsSaved == runs || exhaustive == 0 || pruned == 0 {
		t.Error("the draw missed one of: a repeated sequence, a distinct one, an exhaustive search, a pruned one")
	}
}
