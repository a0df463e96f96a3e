package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/flexer-sched/flexer"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/verify"
)

// machine returns a hardware configuration by name: a Table 1 preset,
// or one of the benchmark's own two 4-core machines that bracket the
// scheduler's regimes — tight4 keeps the scratchpad under pressure
// (spm.Allocate's victim search dominates), roomy4 never spills (set
// signatures dominate).
func machine(name string) flexer.Arch {
	switch name {
	case "tight4":
		return flexer.NewArch("tight4", 4, 128<<10, 32)
	case "roomy4":
		return flexer.NewArch("roomy4", 4, 1<<20, 64)
	}
	a, err := flexer.Preset(name)
	if err != nil {
		panic(err) // a typo in a job table, not an input
	}
	return a
}

// coldJob is one library request of a cold workload: a network compile
// (flexer.SearchNetworkCtx on a fresh cache) or, when Layers > 0, that
// many leading layers searched one by one with flexer.SearchLayerCtx.
type coldJob struct {
	Name    string
	Network string
	Scale   int
	Machine string
	// Variant names what the options change, for the job's row.
	Variant string
	// Layers > 0 searches that many leading layers one by one;
	// MaxLayers > 0 only truncates the network (toy sizes).
	Layers, MaxLayers int
	// Tune adjusts the quick-budget default options.
	Tune func(*flexer.Options)
	// Want pins simulated results recorded elsewhere in the repo
	// (BENCH_0009.json); zero fields are not checked.
	Want wantTotals
}

// wantTotals are a job's expected simulated totals.
type wantTotals struct {
	LayerwiseCycles, LayerwiseTraffic int64 // Σ per-layer best OoO
	Cycles, Traffic                   int64 // Totals(), fused segments applied
}

func (j coldJob) options() flexer.Options {
	o := flexer.Options{
		Arch:    machine(j.Machine),
		Budget:  flexer.QuickBudget(),
		Metric:  flexer.MetricDefault(),
		Workers: 1,
	}
	if j.Tune != nil {
		j.Tune(&o)
	}
	return o
}

func (j coldJob) network() flexer.Network {
	n, err := flexer.NetworkByName(j.Network)
	if err != nil {
		panic(err)
	}
	if j.Scale > 1 {
		n = n.Scale(j.Scale)
	}
	for _, limit := range []int{j.Layers, j.MaxLayers} {
		if limit > 0 && limit < len(n.Layers) {
			n.Layers = n.Layers[:limit]
		}
	}
	return n
}

func mustFaultPlan(spec string) *flexer.FaultPlan {
	p, err := flexer.ParseFaultPlan(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// coldSearchJobs is the plain compile path on four machines spanning
// 2 and 4 cores, a pressured and a never-spilling scratchpad, and all
// three network families (resnet50 repeats shapes, so its compile also
// exercises the per-compile cache).
func coldSearchJobs(size sizing) []coldJob {
	return size.shrink([]coldJob{
		{Name: "squeezenet/8.arch1", Network: "squeezenet", Scale: 8, Machine: "arch1", Variant: "plain"},
		{Name: "squeezenet/8.tight4", Network: "squeezenet", Scale: 8, Machine: "tight4", Variant: "plain"},
		{Name: "vgg16/8.roomy4", Network: "vgg16", Scale: 8, Machine: "roomy4", Variant: "plain"},
		{Name: "resnet50/8.arch4", Network: "resnet50", Scale: 8, Machine: "arch4", Variant: "plain"},
	})
}

// shrink turns a job table into its toy version for smoke runs: the
// first two layers of each network at 1/32 scale, and no pinned totals
// (they belong to the full networks).
const smokeScale = 32

func (size sizing) shrink(jobs []coldJob) []coldJob {
	if !size.Smoke {
		return jobs
	}
	for i := range jobs {
		jobs[i].Scale, jobs[i].MaxLayers, jobs[i].Want = smokeScale, 2, wantTotals{}
		if jobs[i].Layers > 1 {
			jobs[i].Layers = 1
		}
	}
	return jobs
}

// coldVariantJobs sends the same layers through the scheduler's other
// uses. The first job is the old vgg16-quick-fused preset; its
// layerwise half is the old vgg16-quick preset, so both BENCH_0009
// values are asserted on every round.
func coldVariantJobs(size sizing) []coldJob {
	return size.shrink([]coldJob{
		{Name: "vgg16/4.arch5+fuse1", Network: "vgg16", Scale: 4, Machine: "arch5", Variant: "FuseDepth=1",
			Tune: func(o *flexer.Options) { o.FuseDepth = 1 },
			Want: wantTotals{LayerwiseCycles: 1266103, LayerwiseTraffic: 33585056, Cycles: 1261252, Traffic: 33466154}},
		{Name: "squeezenet/8.arch4+fuse2", Network: "squeezenet", Scale: 8, Machine: "arch4", Variant: "FuseDepth=2",
			Tune: func(o *flexer.Options) { o.FuseDepth = 2 }},
		{Name: "squeezenet/8.arch1+fault", Network: "squeezenet", Scale: 8, Machine: "arch1", Variant: "FaultPlan core1@2000,dma@1000-6000x1.5",
			Tune: func(o *flexer.Options) { o.FaultPlan = mustFaultPlan("core1@2000,dma@1000-6000x1.5") }},
		{Name: "vgg16/8.arch1+mintransfer", Network: "vgg16", Scale: 8, Machine: "arch1", Variant: "MetricMinTransfer PriorityMinTransfer MemPolicyFirstFit",
			Tune: func(o *flexer.Options) {
				o.Metric = flexer.MetricMinTransfer()
				o.Priority = flexer.PriorityMinTransfer
				o.MemPolicy = flexer.MemPolicyFirstFit
			}},
		{Name: "vgg16/8.arch4+minspill", Network: "vgg16", Scale: 8, Machine: "arch4", Variant: "PriorityMinSpill MemPolicySmallestFirst",
			Tune: func(o *flexer.Options) {
				o.Priority = flexer.PriorityMinSpill
				o.MemPolicy = flexer.MemPolicySmallestFirst
			}},
		{Name: "squeezenet/8.arch4+exhaustive", Network: "squeezenet", Scale: 8, Machine: "arch4", Variant: "DisableDominance",
			Tune: func(o *flexer.Options) { o.DisableDominance = true }},
		{Name: "squeezenet/8.arch1+default2", Network: "squeezenet", Scale: 8, Machine: "arch1", Variant: "DefaultBudget, first 2 layers, SearchLayerCtx", Layers: 2,
			Tune: func(o *flexer.Options) { o.Budget = flexer.DefaultBudget() }},
	})
}

// jobOutcome is what one execution of a job returned and cost.
type jobOutcome struct {
	Result *flexer.NetworkResult
	Use    usage
	Err    error
}

// run executes the job once. The timed span covers only the library
// call; result checks happen outside it. Two collections first, also
// outside it, put every execution on the same footing. Without them
// what the job before left behind — a large heap, so a distant next
// collection, and warm sync.Pools, which survive one collection — makes
// the same job up to 40% faster after a big job than after a small one,
// and its cost follows the seed-shuffled order.
func (j coldJob) run(ctx context.Context) jobOutcome {
	n, opts := j.network(), j.options()
	runtime.GC()
	runtime.GC()
	m := startMeter()
	var nr *flexer.NetworkResult
	var err error
	if j.Layers > 0 {
		nr = &flexer.NetworkResult{Network: n.Name, Arch: opts.Arch.Name}
		for _, l := range n.Layers {
			lr, lerr := flexer.SearchLayerCtx(ctx, l, opts)
			if lerr != nil {
				err = fmt.Errorf("layer %s: %w", l.Name, lerr)
				break
			}
			nr.Layers = append(nr.Layers, lr)
		}
	} else {
		opts.Cache = flexer.NewCache()
		nr, err = flexer.SearchNetworkCtx(ctx, n, opts)
	}
	return jobOutcome{Result: nr, Use: m.stop(), Err: err}
}

// simTotals are the simulated quantities of a set of layer results.
// They depend only on the key set, never on the host or the seed.
type simTotals struct {
	OoOCycles, OoOTraffic, StaticCycles int64
	// Scores holds cycles x bytes of every layer's best OoO schedule,
	// in job-table order, for the geometric mean.
	Scores []float64
	// Losses counts layers whose best OoO score exceeds best static.
	Losses                       int
	Enumerated, Pruned, Aborted  int
	FusedSegments, LayersCounted int
}

func (t *simTotals) add(o simTotals) {
	t.OoOCycles += o.OoOCycles
	t.OoOTraffic += o.OoOTraffic
	t.StaticCycles += o.StaticCycles
	t.Scores = append(t.Scores, o.Scores...)
	t.Losses += o.Losses
	t.Enumerated += o.Enumerated
	t.Pruned += o.Pruned
	t.Aborted += o.Aborted
	t.FusedSegments += o.FusedSegments
	t.LayersCounted += o.LayersCounted
}

// totalsOf sums a network result the way Totals() does (fused segments
// replace their layers) and gathers the per-layer scores and counts.
func totalsOf(nr *flexer.NetworkResult, metric flexer.Metric) simTotals {
	var t simTotals
	t.OoOCycles, t.StaticCycles, t.OoOTraffic, _ = nr.Totals()
	t.FusedSegments = len(nr.Segments)
	t.LayersCounted = len(nr.Layers)
	for _, lr := range nr.Layers {
		o, s := lr.BestOoO, lr.BestStatic
		t.Scores = append(t.Scores, float64(o.LatencyCycles)*float64(o.TrafficBytes()))
		if metric.Score(o.LatencyCycles, o.TrafficBytes()) > metric.Score(s.LatencyCycles, s.TrafficBytes()) {
			t.Losses++
		}
		t.Enumerated += lr.CandidatesEnumerated
		t.Pruned += lr.CandidatesPruned
		t.Aborted += lr.SchedulesAborted
	}
	return t
}

// verifyStats counts independent schedule checks and what they cost.
type verifyStats struct {
	Schedules, Failures int
	Elapsed             time.Duration
}

// verifyNetwork re-checks every schedule a network result carries with
// the independent verifier: best OoO and best static per layer, the
// degraded repair when a fault plan ran, and every fused segment.
func verifyNetwork(nr *flexer.NetworkResult, opts flexer.Options, vs *verifyStats) error {
	m := model.New(opts.Arch)
	var first error
	check := func(what string, err error) {
		vs.Schedules++
		if err != nil {
			vs.Failures++
			if first == nil {
				first = fmt.Errorf("verify %s: %w", what, err)
			}
		}
	}
	start := time.Now()
	defer func() { vs.Elapsed += time.Since(start) }()
	for _, lr := range nr.Layers {
		for _, s := range []struct {
			what string
			r    *flexer.Schedule
		}{{"ooo", lr.BestOoO}, {"static", lr.BestStatic}} {
			g, err := tile.NewGrid(lr.Layer, s.r.Factors)
			if err != nil {
				check(lr.Layer.Name+" "+s.what, err)
				continue
			}
			check(lr.Layer.Name+" "+s.what, verify.Schedule(dfg.Build(g, m), s.r, opts.Arch))
		}
		if lr.Degraded != nil {
			g, err := tile.NewGrid(lr.Layer, lr.BestOoO.Factors)
			if err != nil {
				check(lr.Layer.Name+" degraded", err)
				continue
			}
			check(lr.Layer.Name+" degraded", verify.ScheduleFaults(dfg.Build(g, m), lr.Degraded, opts.Arch, lr.FaultPlan))
		}
	}
	for _, seg := range nr.Segments {
		what := fmt.Sprintf("fused %s..%s", nr.Layers[seg.First].Layer.Name, nr.Layers[seg.Last].Layer.Name)
		grids := make([]*tile.Grid, 0, len(seg.Factors))
		var gerr error
		for i, f := range seg.Factors {
			g, err := tile.NewGrid(nr.Layers[seg.First+i].Layer, f)
			if err != nil {
				gerr = err
				break
			}
			grids = append(grids, g)
		}
		if gerr != nil {
			check(what, gerr)
			continue
		}
		gr, err := dfg.BuildFused(grids, m)
		if err != nil {
			check(what, err)
			continue
		}
		check(what, verify.Schedule(gr, seg.Result, opts.Arch))
		if seg.Degraded != nil {
			check(what+" degraded", verify.ScheduleFaults(gr, seg.Degraded, opts.Arch, opts.FaultPlan))
		}
	}
	return first
}

// checkWant compares a job's simulated totals with the values pinned
// in its table row.
func (j coldJob) checkWant(nr *flexer.NetworkResult) error {
	w := j.Want
	if w == (wantTotals{}) {
		return nil
	}
	var lwCycles, lwTraffic int64
	for _, lr := range nr.Layers {
		lwCycles += lr.BestOoO.LatencyCycles
		lwTraffic += lr.BestOoO.TrafficBytes()
	}
	cycles, _, traffic, _ := nr.Totals()
	if w.LayerwiseCycles != 0 && (lwCycles != w.LayerwiseCycles || lwTraffic != w.LayerwiseTraffic) {
		return fmt.Errorf("%s: layerwise %d cycles / %d B, BENCH_0009 has %d / %d", j.Name, lwCycles, lwTraffic, w.LayerwiseCycles, w.LayerwiseTraffic)
	}
	if w.Cycles != 0 && (cycles != w.Cycles || traffic != w.Traffic) {
		return fmt.Errorf("%s: totals %d cycles / %d B, BENCH_0009 has %d / %d", j.Name, cycles, traffic, w.Cycles, w.Traffic)
	}
	return nil
}

// sameResults reports whether two executions of one job returned the
// same schedules (the search is deterministic under one P and one
// worker, so later rounds are checked against the verified first one
// instead of being verified again).
func sameResults(a, b *flexer.NetworkResult) error {
	if len(a.Layers) != len(b.Layers) || len(a.Segments) != len(b.Segments) {
		return fmt.Errorf("result shape changed between rounds")
	}
	for i := range a.Layers {
		x, y := a.Layers[i], b.Layers[i]
		if x.BestOoO.Factors != y.BestOoO.Factors || x.BestOoO.LatencyCycles != y.BestOoO.LatencyCycles ||
			x.BestOoO.TrafficBytes() != y.BestOoO.TrafficBytes() ||
			x.BestStatic.LatencyCycles != y.BestStatic.LatencyCycles || x.BestStatic.TrafficBytes() != y.BestStatic.TrafficBytes() {
			return fmt.Errorf("layer %s: result changed between rounds", x.Layer.Name)
		}
	}
	for i := range a.Segments {
		if a.Segments[i].Result.LatencyCycles != b.Segments[i].Result.LatencyCycles ||
			a.Segments[i].Result.TrafficBytes() != b.Segments[i].Result.TrafficBytes() {
			return fmt.Errorf("fused segment %d: result changed between rounds", i)
		}
	}
	return nil
}

// jobRow is the per-job sub-row of a cold result: what the job cost on
// its quiet executions, and what it returned.
type jobRow struct {
	Name       string  `json:"name"`
	Network    string  `json:"network"`
	Machine    string  `json:"machine"`
	Options    string  `json:"options"`
	Layers     int     `json:"layers"`
	WallMS     float64 `json:"wall_ms"`
	Cycles     int64   `json:"ooo_cycles"`
	Traffic    int64   `json:"ooo_traffic_bytes"`
	Static     int64   `json:"static_cycles"`
	Enumerated int     `json:"candidates_enumerated"`
	Pruned     int     `json:"candidates_pruned"`
	Aborted    int     `json:"schedules_aborted"`
	Segments   int     `json:"fused_segments"`
}

// coldSetup is everything before the first timed job: the job table
// and one untimed warm-up compile, which pays the lazy one-off costs
// (page faults, pool fills) that no compile after the first pays.
func coldSetup(ctx context.Context, size sizing) error {
	warm := size.shrink([]coldJob{{Name: "warm-up", Network: "squeezenet", Scale: 8, Machine: "arch4"}})[0]
	return warm.run(ctx).Err
}

// runCold measures a cold workload: whole passes over the fixed job
// list, in a seed-shuffled order, until the time budget is spent (at
// least one pass). Each job's cost is taken over its quiet executions
// (see quiet; with the handful of passes a run affords that is its
// fastest one), and every reported number is a sum or a median over the
// jobs, so it does not depend on how many passes fit.
func runCold(ctx context.Context, jobs []coldJob, seed int64, budget time.Duration, size sizing) (*result, error) {
	res := newResult()
	var setupS []float64
	for i := 0; i < size.ColdSetups; i++ {
		start := time.Now()
		if err := coldSetup(ctx, size); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	order := rand.New(rand.NewSource(seed)).Perm(len(jobs))
	first := make([]*flexer.NetworkResult, len(jobs))
	wallMS, cpuMS, allocKB := make([][]float64, len(jobs)), make([][]float64, len(jobs)), make([][]float64, len(jobs))
	var vs verifyStats
	begin := time.Now()
	for res.Rounds = 0; res.Rounds == 0 || time.Since(begin) < budget; res.Rounds++ {
		for _, ji := range order {
			j := jobs[ji]
			res.Attempted++
			out := j.run(ctx)
			wallMS[ji] = append(wallMS[ji], out.Use.WallS*1000)
			cpuMS[ji] = append(cpuMS[ji], out.Use.CPUMS)
			allocKB[ji] = append(allocKB[ji], out.Use.AllocKB)
			err := out.Err
			if err == nil && first[ji] == nil {
				if err = verifyNetwork(out.Result, j.options(), &vs); err == nil {
					err = j.checkWant(out.Result)
				}
				first[ji] = out.Result
			} else if err == nil {
				err = sameResults(first[ji], out.Result)
			}
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", j.Name, err))
			}
		}
	}

	var sim simTotals
	var latMS []float64
	var wall, cpu, alloc, layers float64
	for ji, j := range jobs {
		q := quiet(wallMS[ji])
		w := quietMedian(wallMS[ji], q)
		latMS = append(latMS, w)
		wall += w
		cpu += quietMedian(cpuMS[ji], q)
		alloc += median(allocKB[ji])
		layers += float64(len(j.network().Layers))
		if first[ji] == nil {
			continue
		}
		t := totalsOf(first[ji], j.options().Metric)
		sim.add(t)
		res.Jobs = append(res.Jobs, jobRow{
			Name: j.Name, Network: first[ji].Network, Machine: j.Machine, Options: j.Variant,
			Layers: t.LayersCounted, WallMS: w,
			Cycles: t.OoOCycles, Traffic: t.OoOTraffic, Static: t.StaticCycles,
			Enumerated: t.Enumerated, Pruned: t.Pruned, Aborted: t.Aborted, Segments: t.FusedSegments,
		})
	}
	lat := summarize(latMS)
	res.Samples, res.TailPercentile = lat.Samples, lat.TailPercentile
	res.VerifyFailures = vs.Failures
	res.endToEnd(endToEnd{
		SetupS:          median(setupS),
		LayersPerS:      layers / (wall / 1000),
		LatencyP50MS:    lat.P50,
		LatencyTailMS:   lat.Tail,
		CPUMSPerLayer:   cpu / layers,
		AllocKBPerLayer: alloc / layers,
		Sim:             sim,
	})
	return res, nil
}
