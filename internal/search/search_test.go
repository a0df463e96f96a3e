package search

import (
	"slices"
	"sync"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/verify"
)

func quickOpts(t *testing.T, archName string) Options {
	t.Helper()
	cfg, err := arch.Preset(archName)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Arch: cfg, Budget: QuickBudget()}
}

func TestMetricScore(t *testing.T) {
	m := MetricDefault()
	if got := m.Score(10, 20); got != 200 {
		t.Errorf("default Score(10,20) = %f, want 200", got)
	}
	// The zero Metric behaves like the default.
	var zero Metric
	if zero.Score(10, 20) != 200 {
		t.Errorf("zero-value Score(10,20) = %f", zero.Score(10, 20))
	}
	mt := MetricMinTransfer()
	// Min-transfer scoring must rank a schedule with half the traffic
	// better even at double the latency.
	fast := mt.Score(100, 1000)
	lean := mt.Score(200, 500)
	if lean >= fast {
		t.Errorf("min-transfer ranks latency too high: lean=%f fast=%f", lean, fast)
	}
}

func TestSearchLayerBasics(t *testing.T) {
	opts := quickOpts(t, "arch1")
	l := layer.NewConv("l", 28, 28, 64, 96, 3)
	lr, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if lr.BestOoO == nil || lr.BestStatic == nil {
		t.Fatal("missing best schedules")
	}
	metric := opts.Metric
	for _, c := range lr.Candidates {
		if metric.Score(lr.BestOoO.LatencyCycles, lr.BestOoO.TrafficBytes()) >
			metric.Score(c.OoO.LatencyCycles, c.OoO.TrafficBytes()) {
			t.Errorf("BestOoO not minimal: tiling %s scores better", c.Factors)
		}
	}
	if lr.Speedup() <= 0 || lr.TrafficReduction() <= 0 {
		t.Errorf("ratios: %f %f", lr.Speedup(), lr.TrafficReduction())
	}
}

// TestCandidatesKeepTotals pins what an exhaustive layer search keeps.
// A Candidate holds totals, no records: each one's equal the totals of
// the schedules TilingSchedules makes for its tiling, and the winning
// tilings' equal BestOoO's and BestStatic's. Those two hold the only
// records, and a search of another layer, which writes its runs over the
// storage of the first search's losers, leaves them as they were and
// passing the verifier.
func TestCandidatesKeepTotals(t *testing.T) {
	opts := quickOpts(t, "arch5")
	opts.Budget.MaxTilings = 8
	opts.DisableDominance = true
	opts.Workers = 1
	l := layer.NewConv("totals", 28, 28, 64, 96, 3)
	lr, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Candidates) < 3 {
		t.Fatalf("%d candidates: too few for a losing one", len(lr.Candidates))
	}
	best := []*sched.Result{lr.BestOoO, lr.BestStatic}
	records := [][]sim.OpRecord{slices.Clone(lr.BestOoO.OpRecords), slices.Clone(lr.BestStatic.OpRecords)}
	totals := []Summary{summaryOf(lr.BestOoO), summaryOf(lr.BestStatic)}
	if _, err := SearchLayer(layer.NewConv("other", 14, 14, 96, 64, 3), opts); err != nil {
		t.Fatal(err)
	}
	m := model.New(opts.Arch)
	for i, r := range best {
		grid, err := tile.NewGrid(l, r.Factors)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Schedule(dfg.Build(grid, m), r, opts.Arch); err != nil {
			t.Errorf("best schedule %d after another search: %v", i, err)
		}
		if !slices.Equal(r.OpRecords, records[i]) || summaryOf(r) != totals[i] {
			t.Errorf("best schedule %d changed under another search", i)
		}
	}
	var wonOoO, wonStatic bool
	for _, c := range lr.Candidates {
		ooo, static, err := TilingSchedules(l, c.Factors, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.OoO != summaryOf(ooo) || c.Static != summaryOf(static) {
			t.Errorf("tiling %s: candidate %+v, TilingSchedules' totals %+v and %+v", c.Factors, c, summaryOf(ooo), summaryOf(static))
		}
		if c.Factors == lr.BestOoO.Factors {
			wonOoO = c.OoO == totals[0]
		}
		if c.Factors == lr.BestStatic.Factors {
			wonStatic = c.Static == totals[1] && c.StaticOrder == lr.BestStaticOrder
		}
	}
	if !wonOoO || !wonStatic {
		t.Errorf("the winning candidates' totals are not the best schedules' (out of order %v, static %v)", wonOoO, wonStatic)
	}
}

func TestSearchLayerDeterministic(t *testing.T) {
	opts := quickOpts(t, "arch5")
	l := layer.NewConv("l", 28, 28, 64, 96, 3)
	a, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestOoO.LatencyCycles != b.BestOoO.LatencyCycles ||
		a.BestOoO.TrafficBytes() != b.BestOoO.TrafficBytes() ||
		a.BestStatic.LatencyCycles != b.BestStatic.LatencyCycles {
		t.Error("search is not deterministic across runs")
	}
}

func TestSearchLayerRejectsInvalid(t *testing.T) {
	opts := quickOpts(t, "arch1")
	if _, err := SearchLayer(layer.Conv{Name: "bad"}, opts); err == nil {
		t.Fatal("invalid layer accepted")
	}
}

// TestSearchRejectsBadDataflows: a baseline dataflow whose Perm is not a
// permutation of the four loops gets an empty order, and a run with an
// empty Order is out of order, so its "static" schedule would be the OoO
// run's. Both entry points refuse it before a cache entry is made.
func TestSearchRejectsBadDataflows(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Budget.Dataflows = []loop.Dataflow{{Name: "bad", Perm: [4]loop.Dim{9, loop.IC, 77, loop.OC}}}
	l := layer.NewConv("c", 8, 8, 4, 4, 3)
	if lr, err := SearchLayer(l, opts); err == nil {
		t.Errorf("SearchLayer accepted a non-permutation: best static %d cycles", lr.BestStatic.LatencyCycles)
	}
	opts.Cache = NewCache()
	if _, err := SearchLayer(l, opts); err == nil {
		t.Error("SearchLayer accepted a non-permutation through a cache")
	}
	if _, err := SearchNetwork(nets.Network{Name: "n", Layers: []layer.Conv{l}}, opts); err == nil {
		t.Error("SearchNetwork accepted a non-permutation")
	}
	if n := opts.Cache.Len(); n != 0 {
		t.Errorf("the cache holds %d entries for rejected options", n)
	}
}

func TestSearchLayerHinted(t *testing.T) {
	opts := quickOpts(t, "arch1")
	l := layer.NewConv("l", 28, 28, 128, 128, 3)
	plain, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Budget.HintedOoO = true
	hinted, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Hints can only improve the best OoO metric (best-of includes the
	// unhinted run).
	m := opts.Metric
	if m.Score(hinted.BestOoO.LatencyCycles, hinted.BestOoO.TrafficBytes()) >
		m.Score(plain.BestOoO.LatencyCycles, plain.BestOoO.TrafficBytes()) {
		t.Error("hinted search produced a worse best-OoO schedule")
	}
}

// TestDisablePruningPlacesEverySet pins the pruning ablation's work on
// the inputs of the root BenchmarkAblationPruningAndInPlace (vgg16/2
// conv4_2 on arch5, quick budget): with DisablePruning the scheduler
// signs nothing, so neither signature pruning nor the two walk rules
// that ride on the step's operand table may spare a set — the winning
// schedule evaluated 17 195 sets and pruned none when every candidate
// was placed from scratch, and still must.
func TestDisablePruningPlacesEverySet(t *testing.T) {
	opts := quickOpts(t, "arch5")
	opts.DisablePruning = true
	l, err := mustNetwork(t, "vgg16", 2).Layer("conv4_2")
	if err != nil {
		t.Fatal(err)
	}
	lr, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := lr.BestOoO; r.SetsEvaluated != 17195 || r.SetsPruned != 0 || r.LatencyCycles != 257345 || r.TrafficBytes() != 6574096 {
		t.Errorf("best OoO schedule: %d sets evaluated, %d pruned, %d cycles, %d bytes; want 17195, 0, 257345, 6574096",
			r.SetsEvaluated, r.SetsPruned, r.LatencyCycles, r.TrafficBytes())
	}
}

func TestEscalationFindsTilingsForHugeLayer(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Budget.MaxOps = 64 // deliberately too small for this layer
	l := layer.NewConv("big", 104, 104, 64, 128, 3)
	lr, err := SearchLayer(l, opts)
	if err != nil {
		t.Fatalf("escalation failed: %v", err)
	}
	if len(lr.Candidates) == 0 {
		t.Fatal("no candidates after escalation")
	}
}

func TestMetricMinTransferChangesSelection(t *testing.T) {
	cfg, _ := arch.Preset("arch5")
	l := layer.NewConv("l", 56, 56, 128, 256, 3)
	b := QuickBudget()
	b.MaxTilings = 6
	def, err := SearchLayer(l, Options{Arch: cfg, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := SearchLayer(l, Options{Arch: cfg, Budget: b, Metric: MetricMinTransfer()})
	if err != nil {
		t.Fatal(err)
	}
	// The data-weighted metric must never pick a best-OoO schedule with
	// more traffic than the default metric's choice.
	if lean.BestOoO.TrafficBytes() > def.BestOoO.TrafficBytes() {
		t.Errorf("min-transfer metric chose more traffic: %d > %d",
			lean.BestOoO.TrafficBytes(), def.BestOoO.TrafficBytes())
	}
}

func TestSearchNetworkSmall(t *testing.T) {
	opts := quickOpts(t, "arch1")
	n := mustNetwork(t, "vgg16", 8)
	n.Layers = n.Layers[:4]
	nr, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Layers) != 4 {
		t.Fatalf("%d layer results", len(nr.Layers))
	}
	oooLat, staticLat, oooT, staticT := nr.Totals()
	if oooLat <= 0 || staticLat <= 0 || oooT <= 0 || staticT <= 0 {
		t.Fatalf("degenerate totals: %d %d %d %d", oooLat, staticLat, oooT, staticT)
	}
	if nr.Speedup() <= 0 || nr.TrafficReduction() <= 0 {
		t.Fatalf("ratios: %f %f", nr.Speedup(), nr.TrafficReduction())
	}
	// Per-layer results are in network order with matching names.
	for i, lr := range nr.Layers {
		if lr.Layer.Name != n.Layers[i].Name {
			t.Errorf("layer %d named %q, want %q", i, lr.Layer.Name, n.Layers[i].Name)
		}
	}
}

func TestCacheDedupesRepeatedShapes(t *testing.T) {
	opts := quickOpts(t, "arch1")
	cache := NewCache()
	opts.Cache = cache
	// Two layers with identical shapes but different names.
	l1 := layer.NewConv("a", 28, 28, 64, 64, 3)
	l2 := layer.NewConv("b", 28, 28, 64, 64, 3)
	r1, err := SearchLayer(l1, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SearchLayer(l2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", cache.Len())
	}
	if r1.Layer.Name != "a" || r2.Layer.Name != "b" {
		t.Errorf("cached results did not keep caller names: %q %q", r1.Layer.Name, r2.Layer.Name)
	}
	if r1.BestOoO.LatencyCycles != r2.BestOoO.LatencyCycles {
		t.Error("cached results differ")
	}
	// A different shape gets its own entry.
	if _, err := SearchLayer(layer.NewConv("c", 28, 28, 64, 96, 3), opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", cache.Len())
	}
}

func TestCacheCoalescesConcurrentLookups(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Cache = NewCache()
	l := layer.NewConv("x", 28, 28, 64, 64, 3)
	var wg sync.WaitGroup
	results := make([]*LayerResult, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := SearchLayer(l, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if opts.Cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", opts.Cache.Len())
	}
	for _, r := range results[1:] {
		if r == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		if r.BestOoO.LatencyCycles != results[0].BestOoO.LatencyCycles {
			t.Error("concurrent lookups diverged")
		}
	}
}

func TestCacheKeyIgnoresName(t *testing.T) {
	opts := quickOpts(t, "arch1")
	a := CacheKey(layer.NewConv("a", 8, 8, 4, 4, 3), opts)
	b := CacheKey(layer.NewConv("b", 8, 8, 4, 4, 3), opts)
	if a != b {
		t.Error("cache key depends on layer name")
	}
	c := CacheKey(layer.NewConv("a", 8, 8, 4, 8, 3), opts)
	if a == c {
		t.Error("cache key ignores layer shape")
	}
	opts2 := opts
	opts2.Priority = 2
	if CacheKey(layer.NewConv("a", 8, 8, 4, 4, 3), opts2) == a {
		t.Error("cache key ignores priority")
	}
}

func TestNetworkResultFields(t *testing.T) {
	opts := quickOpts(t, "arch2")
	n := nets.Network{Name: "mini", Layers: []layer.Conv{
		layer.NewConv("c1", 14, 14, 32, 32, 3),
	}}
	nr, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Network != "mini" || nr.Arch != "arch2" {
		t.Errorf("identity fields: %q %q", nr.Network, nr.Arch)
	}
}

// TestTilingsDefaultValuesPerDim: a budget that leaves MaxValuesPerDim 0
// means the default of 10 values, also where the op cap has to be
// relaxed until some tiling fits — the values are relaxed from 10 too,
// not from Enumerate's own default, which escalating from 0 would
// tighten to 4, 8, 12.
func TestTilingsDefaultValuesPerDim(t *testing.T) {
	l := layer.NewConv("big", 224, 224, 3, 64, 3)
	cfg := arch.New("small", 4, arch.KiB(8), 32)
	got, want := Tilings(l, cfg, Budget{}), Tilings(l, cfg, Budget{MaxValuesPerDim: tile.DefaultMaxValuesPerDim})
	if len(want) < 2 || !slices.Equal(got, want) {
		t.Errorf("Budget{} gives %d tilings, Budget{MaxValuesPerDim: 10} %d: want the same list of several", len(got), len(want))
	}
}
