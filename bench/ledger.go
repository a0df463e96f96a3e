package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/flexer-sched/flexer"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/trace"
	"github.com/flexer-sched/flexer/internal/verify"
)

// perLayerSpecs is the per-layer ledger, module by module from tile to
// cluster. README.md says which end-to-end metric on which workload
// each row is expected to move.
var perLayerSpecs = []metricSpec{
	{Name: "tile.enumerate_us", Unit: "us", Better: "lower"},
	{Name: "tile.tilings", Unit: "count", Better: "lower"},
	{Name: "tile.grid_us", Unit: "us", Better: "lower"},
	{Name: "dfg.build_us", Unit: "us", Better: "lower"},
	{Name: "dfg.ops", Unit: "count", Better: "lower"},
	{Name: "dfg.build_fused_us", Unit: "us", Better: "lower"},
	{Name: "loop.order_us", Unit: "us", Better: "lower"},
	{Name: "search.bound_us", Unit: "us", Better: "lower"},

	{Name: "spm.alloc_ns.tight", Unit: "ns", Better: "lower"},
	{Name: "spm.alloc_ns.roomy", Unit: "ns", Better: "lower"},
	{Name: "spm.evictions_per_alloc.tight", Unit: "ratio", Better: "lower"},
	{Name: "spm.evictions_per_alloc.roomy", Unit: "ratio", Better: "lower"},
	{Name: "spm.clone_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.events", Unit: "count", Better: "lower"},

	{Name: "sched.ooo_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.hinted_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.static_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.sets_evaluated", Unit: "count", Better: "lower"},
	{Name: "sched.sets_pruned", Unit: "count", Better: "higher"},
	{Name: "sched.sim_cycles_per_s", Unit: "cycles/s", Better: "higher"},
	{Name: "sched.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.allocs_per_schedule", Unit: "count", Better: "lower"},
	{Name: "sched.alloc_kb_per_schedule", Unit: "KiB", Better: "lower"},

	{Name: "sched.fused_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "search.fuse_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "search.fused_segments", Unit: "count", Better: "higher"},

	{Name: "verify.us_per_schedule", Unit: "us", Better: "lower"},
	{Name: "verify.failures", Unit: "count", Better: "lower"},
	{Name: "trace.build_us", Unit: "us", Better: "lower"},

	{Name: "search.layer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "search.layer_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "search.candidates_enumerated", Unit: "count", Better: "lower"},
	{Name: "search.candidates_pruned", Unit: "count", Better: "higher"},
	{Name: "search.schedules_aborted", Unit: "count", Better: "higher"},
	{Name: "search.pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "search.ooo_losses", Unit: "count", Better: "lower"},

	{Name: "search.cache_key_ns", Unit: "ns", Better: "lower"},
	{Name: "search.cache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "search.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.cache_misses", Unit: "count", Better: "lower"},
	{Name: "search.cache_coalesced", Unit: "count", Better: "higher"},
	{Name: "search.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "search.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "search.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "search.parallel_speedup_w2", Unit: "ratio", Better: "higher"},

	{Name: "serve.layer_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.stream_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.network_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.response_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "serve.response_bytes_network_p50", Unit: "bytes", Better: "lower"},
	{Name: "serve.log_bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "serve.transport_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.requests_shed", Unit: "count", Better: "lower"},
	{Name: "serve.errors_5xx", Unit: "count", Better: "lower"},
	{Name: "serve.requests_preempted", Unit: "count", Better: "lower"},
	{Name: "serve.hit_rps_p2", Unit: "1/s", Better: "higher"},

	{Name: "admission.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.acquire_release_ns_w16", Unit: "ns", Better: "lower"},
	{Name: "admission.grants", Unit: "count", Better: "higher"},

	{Name: "cluster.ring_home_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forwarded_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.local_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.forwarded_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.snapshot_pull_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.snapshot_entries", Unit: "count", Better: "higher"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.degraded_responses", Unit: "count", Better: "lower"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.calib_ms", Unit: "ms", Better: "lower"},
}

// ledger is one traced run: it probes every layer through its exported
// functions, recording a span around each call, and fills in every
// per-layer metric. The probes are the same under every workload (the
// contract prints every per-layer metric on every traced run); the
// workload decides what bench.trace_overhead_share is measured on.
type ledger struct {
	ctx   context.Context
	rec   *recorder
	res   *result
	vals  map[string]float64
	scale float64 // repetition counts are sized for runSeconds and scaled by the budget
	size  sizing

	// bests are the replayed layers, kept for the repair and timeline
	// probes.
	bests []replayedLayer
}

type replayedLayer struct {
	Layer flexer.Conv
	Opts  flexer.Options
	replayed
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

// reps scales a repetition count sized for a full run.
func (l *ledger) reps(full int) int {
	if n := int(float64(full) * l.scale); n > 1 {
		return n
	}
	return 1
}

// op counts one checked operation.
func (l *ledger) op(err error) {
	l.res.Attempted++
	if err != nil {
		l.res.fail(err)
	}
}

// medianOf returns the median duration of the named spans in a unit of
// perUnit nanoseconds (0 when none were recorded).
func medianOf(durs map[string][]float64, name string, perUnit float64) float64 {
	return median(durs[name]) / perUnit
}

// runLedger is the traced run of a workload.
func runLedger(ctx context.Context, workload string, seed int64, budget time.Duration, size sizing, env environment) (*result, error) {
	l := &ledger{ctx: ctx, rec: newRecorder(), res: newResult(), vals: map[string]float64{},
		scale: budget.Seconds() / runSeconds, size: size}
	l.set("bench.calib_ms", env.CalibMS)
	for _, probe := range []func() error{l.pipeline, l.variants, l.scratchpad, l.timeline, l.cache, l.admission} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	if err := l.service(workload, seed); err != nil {
		return nil, err
	}
	if workload == "cold-search" || workload == "cold-variants" {
		if err := l.replayOverhead(workload); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(spansPath(workload), l.rec.spans); err != nil {
		return nil, fmt.Errorf("spans file: %w", err)
	}
	for _, m := range perLayerSpecs {
		v, ok := l.vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		l.res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	l.res.VerifyFailures = int(l.vals["verify.failures"])
	return l.res, nil
}

// replaySet is what the pipeline probe replays: squeezenet on a 2-core
// preset, the pressured and the never-spilling 4-core machine, and a
// few larger vgg16 layers on arch5.
func (l *ledger) replaySet() []replayedLayer {
	type pick struct {
		network, machine string
		from, to         int
	}
	picks := []pick{{"squeezenet", "arch1", 0, 10}, {"squeezenet", "tight4", 0, 10}, {"squeezenet", "roomy4", 0, 10}, {"vgg16", "arch5", 4, 7}}
	scale := hotScale
	if l.size.Smoke {
		picks = []pick{{"squeezenet", "arch1", 1, 3}, {"squeezenet", "tight4", 1, 2}}
		scale = smokeScale
	}
	var set []replayedLayer
	for _, p := range picks {
		j := coldJob{Network: p.network, Scale: scale, Machine: p.machine}
		for _, lay := range j.network().Layers[p.from:p.to] {
			set = append(set, replayedLayer{Layer: lay, Opts: j.options()})
		}
	}
	return set
}

// pipeline replays layer searches from outside (tile -> dfg -> loop ->
// sched) next to the facade's own search of the same layer, and times
// verify and trace on the winners.
func (l *ledger) pipeline() error {
	set := l.replaySet()
	var counts replayCounts
	var layerMS []float64
	var enumerated, pruned, aborted, losses, verifyFailures int
	first := len(l.rec.spans)
	for i := range set {
		rl := &set[i]
		l.rec.nextRequest()
		start := time.Now()
		lr, err := flexer.SearchLayerCtx(l.ctx, rl.Layer, rl.Opts)
		if err != nil {
			return fmt.Errorf("facade search of %s: %w", rl.Layer.Name, err)
		}
		layerMS = append(layerMS, float64(time.Since(start))/float64(time.Millisecond))
		enumerated += lr.CandidatesEnumerated
		pruned += lr.CandidatesPruned
		aborted += lr.SchedulesAborted
		m := rl.Opts.Metric
		if m.Score(lr.BestOoO.LatencyCycles, lr.BestOoO.TrafficBytes()) > m.Score(lr.BestStatic.LatencyCycles, lr.BestStatic.TrafficBytes()) {
			losses++
		}

		rl.replayed, err = replayLayer(l.rec, rl.Layer, rl.Opts, &counts)
		if err == nil {
			err = rl.agrees(lr)
		}
		l.op(err)
		if err != nil {
			continue
		}
		sp := l.rec.begin("verify.Schedule")
		err = verify.Schedule(rl.Graph, rl.BestOoO, rl.Opts.Arch)
		l.rec.end(sp)
		if err != nil {
			verifyFailures++
		}
		l.op(err)
		sp = l.rec.begin("trace.Build")
		_ = trace.Build(rl.BestOoO, false)
		l.rec.end(sp)
		l.bests = append(l.bests, *rl)
	}
	if len(l.bests) == 0 {
		return fmt.Errorf("pipeline replay produced no schedule")
	}

	spans := l.rec.spans[first:]
	durs := durations(spans)
	l.set("tile.enumerate_us", medianOf(durs, "tile.Enumerate", 1e3))
	l.set("tile.tilings", float64(counts.Tilings))
	l.set("tile.grid_us", medianOf(durs, "tile.NewGrid", 1e3))
	l.set("dfg.build_us", medianOf(durs, "dfg.Build", 1e3))
	l.set("dfg.ops", float64(counts.Ops))
	l.set("loop.order_us", medianOf(durs, "loop.Order", 1e3))
	l.set("search.bound_us", medianOf(durs, "search.LowerBound", 1e3))
	l.set("sched.ooo_ms", medianOf(durs, "sched.ooo", 1e6))
	l.set("sched.hinted_ms", medianOf(durs, "sched.hinted", 1e6))
	l.set("sched.static_ms", medianOf(durs, "sched.static", 1e6))
	l.set("sched.sets_evaluated", float64(counts.SetsEvaluated))
	l.set("sched.sets_pruned", float64(counts.SetsPruned))
	var schedNS, pipelineNS float64
	for _, name := range []string{"sched.ooo", "sched.hinted", "sched.static"} {
		for _, d := range durs[name] {
			schedNS += d
		}
	}
	for _, d := range durs["search.layer"] {
		pipelineNS += d
	}
	l.set("sched.sim_cycles_per_s", float64(counts.SimCycles)/(schedNS/1e9))
	l.set("sched.ops_per_s", float64(counts.OpsScheduled)/(schedNS/1e9))
	l.set("verify.us_per_schedule", medianOf(durs, "verify.Schedule", 1e3))
	l.set("verify.failures", float64(verifyFailures))
	l.set("trace.build_us", medianOf(durs, "trace.Build", 1e3))

	// The evidence that timing layers from outside is adequate: sched's
	// own time is nearly all of the replayed pipeline.
	self := selfTimes(spans)
	schedSelf := float64(self["sched.ooo"] + self["sched.hinted"] + self["sched.static"])
	l.res.SchedSelfShare = schedSelf / pipelineNS

	t := summarize(layerMS)
	l.set("search.layer_ms_p50", t.P50)
	l.set("search.layer_ms_tail", t.Tail)
	l.res.Samples, l.res.TailPercentile = t.Samples, t.TailPercentile
	l.set("search.candidates_enumerated", float64(enumerated))
	l.set("search.candidates_pruned", float64(pruned))
	l.set("search.schedules_aborted", float64(aborted))
	l.set("search.pruned_share", float64(pruned)/float64(enumerated))
	l.set("search.ooo_losses", float64(losses))

	// Allocation per schedule: one graph, scheduled out of order again
	// and again, so pools are warm and the figure is the steady state.
	big := l.biggest()
	cfg := schedConfig(big.Opts, model.New(big.Opts.Arch))
	n := l.reps(40)
	m := startMeter()
	for i := 0; i < n; i++ {
		if _, err := sched.Schedule(big.Graph, cfg); err != nil {
			return err
		}
	}
	u := m.stop()
	l.set("sched.allocs_per_schedule", u.Mallocs/float64(n))
	l.set("sched.alloc_kb_per_schedule", u.AllocKB/float64(n))
	return nil
}

// biggest returns the replayed layer whose best schedule has the most
// ops.
func (l *ledger) biggest() replayedLayer {
	big := l.bests[0]
	for _, b := range l.bests[1:] {
		if len(b.BestOoO.OpRecords) > len(big.BestOoO.OpRecords) {
			big = b
		}
	}
	return big
}

// variants times the scheduler's other entry points: a fused graph per
// accepted segment of a fused compile, the fusion pass on its own, and
// a repair of every replayed best schedule.
func (l *ledger) variants() error {
	j := coldJob{Network: "squeezenet", Scale: hotScale, Machine: "arch4", Tune: func(o *flexer.Options) { o.FuseDepth = 2 }}
	if l.size.Smoke {
		j.Scale, j.MaxLayers = smokeScale, 4
	}
	opts := j.options()
	opts.Cache = flexer.NewCache()
	if _, err := flexer.SearchNetworkCtx(l.ctx, j.network(), opts); err != nil {
		return err
	}
	// Every layer is now cached, so a second compile is the fusion pass
	// (plus one cache hit per layer).
	sp := l.rec.begin("search.fusePass")
	nr, err := flexer.SearchNetworkCtx(l.ctx, j.network(), opts)
	l.rec.end(sp)
	if err != nil {
		return err
	}
	l.set("search.fuse_pass_ms", l.rec.ns(sp)/1e6)
	l.set("search.fused_segments", float64(len(nr.Segments)))

	first := len(l.rec.spans)
	m := model.New(opts.Arch)
	for _, seg := range nr.Segments {
		l.rec.nextRequest()
		var grids []*tile.Grid
		for i, f := range seg.Factors {
			g, err := tile.NewGrid(nr.Layers[seg.First+i].Layer, f)
			if err != nil {
				return err
			}
			grids = append(grids, g)
		}
		sp := l.rec.begin("dfg.BuildFused")
		gr, err := dfg.BuildFused(grids, m)
		l.rec.end(sp)
		if err != nil {
			l.op(err)
			continue
		}
		cfg := schedConfig(opts, m)
		cfg.CutoffCycles = seg.LayerwiseCycles
		sp = l.rec.begin("sched.fused")
		r, err := sched.Schedule(gr, cfg)
		l.rec.end(sp)
		if err == nil && totalsOfSchedule(r) != totalsOfSchedule(seg.Result) {
			err = fmt.Errorf("fused segment %d: replay %+v, search %+v", seg.First, totalsOfSchedule(r), totalsOfSchedule(seg.Result))
		}
		if err == nil {
			err = verify.Schedule(gr, r, opts.Arch)
		}
		l.op(err)
	}

	for _, b := range l.bests {
		l.rec.nextRequest()
		// Core 1 dies half-way through and the DMA slows from the first
		// quarter on, whatever the schedule's length, so every repair has
		// a prefix to keep and a remainder to re-plan.
		plan := mustFaultPlan(fmt.Sprintf("core1@%d,dma@%dx1.5", b.BestOoO.LatencyCycles/2, b.BestOoO.LatencyCycles/4))
		cfg := schedConfig(b.Opts, model.New(b.Opts.Arch))
		sp := l.rec.begin("sched.repair")
		r, err := sched.Repair(b.Graph, b.BestOoO, plan, cfg)
		l.rec.end(sp)
		if err == nil {
			err = verify.ScheduleFaults(b.Graph, r, b.Opts.Arch, plan)
		}
		l.op(err)
	}
	durs := durations(l.rec.spans[first:])
	l.set("dfg.build_fused_us", medianOf(durs, "dfg.BuildFused", 1e3))
	l.set("sched.fused_ms", medianOf(durs, "sched.fused", 1e6))
	l.set("sched.repair_ms", medianOf(durs, "sched.repair", 1e6))
	return nil
}

// scratchpad walks one tiled layer (vgg16/8 conv2_1: 222 KiB of tiles)
// in output-stationary order, allocating each op's input, weight and
// output tile with the DFG's remaining-use counts, at 128 KiB (evictions
// on most steps) and at 1 MiB (none): spm.Allocate with and without
// Algorithm 2's victim search.
func (l *ledger) scratchpad() error {
	n, err := flexer.NetworkByName("vgg16")
	if err != nil {
		return err
	}
	lay := n.Scale(hotScale).Layers[2]
	tilings := tile.Enumerate(lay, tile.EnumLimits{SPMBytes: 128 << 10, Cores: 4, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6})
	var graph *dfg.Graph
	for _, f := range tilings {
		g, err := tile.NewGrid(lay, f)
		if err != nil {
			continue
		}
		if gr := dfg.Build(g, model.New(machine("tight4"))); graph == nil || len(gr.Ops) > len(graph.Ops) {
			graph = gr
		}
	}
	if graph == nil {
		return fmt.Errorf("scratchpad probe: no tiling of %s fits 128 KiB", lay.Name)
	}
	order := loop.Order(graph, loop.Canonical()[0])
	uses := graph.Uses()
	remain := func(id tile.ID) int { return uses[id] }
	reps := l.reps(200)
	for _, c := range []struct {
		name     string
		capacity int64
	}{{"tight", 128 << 10}, {"roomy", 1 << 20}} {
		s := spm.New(c.capacity, spm.PolicyFlexer)
		var allocs, evictions int
		sp := l.rec.begin("spm.walk." + c.name)
		for r := 0; r < reps; r++ {
			s.Reset(c.capacity, spm.PolicyFlexer)
			uses = graph.UsesInto(uses)
			for _, oi := range order {
				op := graph.Ops[oi]
				for _, id := range [3]tile.ID{op.In, op.Wt, op.Out} {
					ev, err := s.Allocate(id, graph.Size(id), remain)
					if err != nil {
						return fmt.Errorf("scratchpad probe (%s): %w", c.name, err)
					}
					allocs++
					evictions += len(ev)
				}
				s.SetDirty(op.Out, !op.Final)
				uses[op.In]--
				uses[op.Wt]--
				uses[op.Out]--
				s.UnpinAll()
			}
		}
		l.rec.end(sp)
		if err := s.CheckInvariants(); err != nil {
			l.op(fmt.Errorf("scratchpad probe (%s): %w", c.name, err))
		}
		ns := l.rec.ns(sp)
		l.set("spm.alloc_ns."+c.name, ns/float64(allocs))
		l.set("spm.evictions_per_alloc."+c.name, float64(evictions)/float64(allocs))
		if c.name == "tight" {
			// s is full after the walk: the state a scheduler step clones.
			dst := spm.New(c.capacity, spm.PolicyFlexer)
			clones := l.reps(20000)
			sp := l.rec.begin("spm.CloneInto")
			for i := 0; i < clones; i++ {
				s.CloneInto(dst)
			}
			l.rec.end(sp)
			l.set("spm.clone_ns", l.rec.ns(sp)/float64(clones))
		}
	}
	return nil
}

// timeline re-issues a finished schedule's compute and DMA records, in
// start order, through a fresh sim.Timeline and checks the makespan.
func (l *ledger) timeline() error {
	big := l.biggest()
	r := big.BestOoO
	type event struct {
		start int64
		op    *sim.OpRecord
		mem   *sim.MemRecord
	}
	events := make([]event, 0, len(r.OpRecords)+len(r.MemRecords))
	var makespan int64
	for i := range r.OpRecords {
		events = append(events, event{start: r.OpRecords[i].Start, op: &r.OpRecords[i]})
		makespan = max(makespan, r.OpRecords[i].End)
	}
	for i := range r.MemRecords {
		events = append(events, event{start: r.MemRecords[i].Start, mem: &r.MemRecords[i]})
		makespan = max(makespan, r.MemRecords[i].End)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].start < events[j].start })
	tl := sim.New(big.Opts.Arch.Cores)
	reps := l.reps(2000)
	sp := l.rec.begin("sim.replay")
	for i := 0; i < reps; i++ {
		tl.Reset(big.Opts.Arch.Cores)
		for _, e := range events {
			if e.op != nil {
				tl.Issue(e.op.Op, e.op.NPU, e.op.Start, e.op.End-e.op.Start)
			} else {
				tl.Transfer(e.mem.Tile, e.mem.Kind, e.mem.Bytes, e.mem.End-e.mem.Start, e.mem.Start)
			}
		}
	}
	l.rec.end(sp)
	var err error
	if tl.Makespan() != makespan {
		err = fmt.Errorf("timeline replay of %s: makespan %d, schedule says %d", big.Layer.Name, tl.Makespan(), makespan)
	}
	l.op(err)
	total := float64(len(events) * reps)
	l.set("sim.events", float64(len(events)))
	l.set("sim.events_per_s", total/(l.rec.ns(sp)/1e9))
	return nil
}

// cache measures the memoization layer: what a compile of a network
// with repeated shapes saves, what a key and a hit cost, a snapshot
// round trip, and (informational) what a second worker on a second P
// buys.
func (l *ledger) cache() error {
	j := coldJob{Network: "resnet50", Scale: hotScale, Machine: "arch4"}
	if l.size.Smoke {
		j.Scale, j.MaxLayers = smokeScale, 4
	}
	n, opts := j.network(), j.options()
	opts.Cache = flexer.NewCache()
	if _, err := flexer.SearchNetworkCtx(l.ctx, n, opts); err != nil {
		return err
	}
	st := opts.Cache.Stats()
	l.set("search.cache_hit_ratio", st.HitRatio())
	l.set("search.cache_misses", float64(st.Misses))
	l.set("search.cache_coalesced", float64(st.CoalescedHits))

	keys := l.reps(20000)
	sp := l.rec.begin("search.CacheKey")
	for i := 0; i < keys; i++ {
		_ = search.CacheKey(n.Layers[i%len(n.Layers)], opts)
	}
	l.rec.end(sp)
	l.set("search.cache_key_ns", l.rec.ns(sp)/float64(keys))

	hits := l.reps(20000)
	sp = l.rec.begin("search.cacheHit")
	for i := 0; i < hits; i++ {
		if _, err := flexer.SearchLayerCtx(l.ctx, n.Layers[i%len(n.Layers)], opts); err != nil {
			return err
		}
	}
	l.rec.end(sp)
	l.set("search.cache_hit_ns", l.rec.ns(sp)/float64(hits))
	var err error
	if got := opts.Cache.Stats().Misses; got != st.Misses {
		err = fmt.Errorf("cache probe: %d lookups of cached layers missed", got-st.Misses)
	}
	l.op(err)

	var buf bytes.Buffer
	sp = l.rec.begin("search.SaveTo")
	saved, err := opts.Cache.SaveTo(&buf)
	l.rec.end(sp)
	if err != nil {
		return err
	}
	l.set("search.snapshot_save_ms", l.rec.ns(sp)/1e6)
	l.set("search.snapshot_bytes", float64(buf.Len()))
	fresh := flexer.NewCache()
	sp = l.rec.begin("search.LoadFrom")
	loaded, err := fresh.LoadFrom(&buf)
	l.rec.end(sp)
	if err == nil && loaded != saved {
		err = fmt.Errorf("snapshot: saved %d entries, loaded %d", saved, loaded)
	}
	l.op(err)
	l.set("search.snapshot_load_ms", l.rec.ns(sp)/1e6)

	// One compile with one worker on one P, then with two workers on
	// two Ps. On a shared 2-vCPU box this swings by tens of percent;
	// it is here to be looked at, not gated.
	par := coldJob{Network: "squeezenet", Scale: hotScale, Machine: "arch1", MaxLayers: j.MaxLayers}
	if l.size.Smoke {
		par.Scale = smokeScale
	}
	one := par.run(l.ctx)
	if one.Err != nil {
		return one.Err
	}
	prev := runtime.GOMAXPROCS(2)
	par.Tune = func(o *flexer.Options) { o.Workers = 2 }
	two := par.run(l.ctx)
	runtime.GOMAXPROCS(prev)
	if two.Err != nil {
		return two.Err
	}
	l.op(sameResults(one.Result, two.Result))
	l.set("search.parallel_speedup_w2", one.Use.WallS/two.Use.WallS)
	return nil
}

// traceOverhead sets bench.trace_overhead_share: the same pass run with
// the recorder off, on, on, off (so a drift in machine speed cancels),
// as (on - off) / off.
func (l *ledger) traceOverhead(pass func(rec *recorder) error) error {
	var walls [2]time.Duration
	for _, on := range []int{0, 1, 1, 0} {
		rec := []*recorder{nil, l.rec}[on]
		start := time.Now()
		if err := pass(rec); err != nil {
			return err
		}
		walls[on] += time.Since(start)
	}
	l.set("bench.trace_overhead_share", float64(walls[1]-walls[0])/float64(walls[0]))
	return nil
}

// replayOverhead measures the tracing overhead of the cold workloads on
// the first layers of the workload's first job, replayed from outside.
func (l *ledger) replayOverhead(workload string) error {
	jobs := coldSearchJobs(l.size)
	if workload == "cold-variants" {
		jobs = coldVariantJobs(l.size)
	}
	j := jobs[0]
	layers := j.network().Layers
	if len(layers) > 3 {
		layers = layers[:3]
	}
	opts := j.options()
	opts.FuseDepth, opts.FaultPlan = 0, nil
	return l.traceOverhead(func(rec *recorder) error {
		var counts replayCounts
		for _, lay := range layers {
			rec.nextRequest()
			if _, err := replayLayer(rec, lay, opts, &counts); err != nil {
				return err
			}
		}
		return nil
	})
}
