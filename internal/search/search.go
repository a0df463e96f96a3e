// Package search drives the outer loop of Algorithm 1: for a layer it
// enumerates viable tilings, generates an out-of-order schedule for
// each, generates the static loop-order schedules for every dataflow of
// the baseline, and returns the best of each ranked by the configurable
// metric (latency x transferred data by default).
//
// The paper reports that this exhaustive search is embarrassingly slow
// (~20 h for ResNet-50 on 4 cores) and suggests memoization and
// parallelism; both are implemented here: tilings are scheduled by a
// worker pool, and a Cache keyed by (layer shape, arch, options)
// deduplicates repeated layer shapes, which cuts ResNet-style networks
// by more than half.
package search

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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

// Metric ranks schedules by latency^LatExp x traffic^TrafficExp. The
// zero value means the paper's default metric (both exponents 1).
type Metric struct {
	LatExp, TrafficExp float64
}

// MetricDefault is the paper's ranking metric: latency x traffic.
func MetricDefault() Metric { return Metric{LatExp: 1, TrafficExp: 1} }

// orDefault returns m, or MetricDefault for the zero metric: what m
// ranks by, and so what the cache key names.
func (m Metric) orDefault() Metric {
	if m == (Metric{}) {
		return MetricDefault()
	}
	return m
}

// MetricMinTransfer weights traffic reduction far above latency,
// matching the Figure 9(b) experiment.
func MetricMinTransfer() Metric { return Metric{LatExp: 0.1, TrafficExp: 1} }

// MetricNames lists the names ParseMetric accepts.
func MetricNames() []string { return []string{"default", "min-transfer"} }

// ParseMetric returns the metric a name from MetricNames stands for.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "default":
		return MetricDefault(), nil
	case "min-transfer":
		return MetricMinTransfer(), nil
	}
	return Metric{}, fmt.Errorf("unknown metric %q (want %s)", name, strings.Join(MetricNames(), ", "))
}

// Score computes the metric value; lower is better.
func (m Metric) Score(latency, traffic int64) float64 {
	m = m.orDefault()
	return math.Pow(float64(latency), m.LatExp) * math.Pow(float64(traffic), m.TrafficExp)
}

// better reports whether score a beats score b: strictly lower. It is
// the search's one comparison — the keeps of a tiling and of a layer,
// the incumbents, the cutoffs, progress — and it is spelled with < so a
// NaN score neither beats nor is beaten.
func better(a, b float64) bool { return a < b }

// score is r's metric value.
func (m Metric) score(r *sched.Result) float64 { return m.Score(r.LatencyCycles, r.TrafficBytes()) }

// beats reports whether r beats best, the schedule kept so far (nil
// while there is none).
func (m Metric) beats(r, best *sched.Result) bool {
	return best == nil || better(m.score(r), m.score(best))
}

// Budget bounds the search effort.
type Budget struct {
	// MaxTilings caps the candidate tilings per layer.
	MaxTilings int
	// MaxOps skips tilings producing more tiled ops than this.
	MaxOps int
	// MaxValuesPerDim caps the candidate factor values per dimension.
	MaxValuesPerDim int
	// Dataflows is the static baseline search space (nil means
	// loop.Canonical()). Per tiling, an entry that walks the grid in the
	// op sequence of an earlier entry — a literal repeat, or a
	// permutation differing only in where the grid's one-iteration loops
	// sit — is skipped: the earlier entry's runs already stand for it.
	Dataflows []loop.Dataflow
	// MaxReadyWindow and MaxCandidateSets bound the OoO scheduler's
	// per-step work: the ready ops sets are formed from, and the sets
	// evaluated of each set width (0 = scheduler defaults).
	MaxReadyWindow, MaxCandidateSets int
	// HintedOoO additionally generates one OoO schedule seeded with
	// each of the first maxOoOHints dataflows (Algorithm 1 runs
	// GetSchedule per tiling AND dataflow) and keeps the best; costs
	// one extra OoO run per such dataflow per tiling.
	HintedOoO bool
}

// resolved is b with each non-positive limit the default it stands for
// (MaxTilings: 0, no cap): the cache key and escalate read these.
func (b Budget) resolved() Budget {
	b.MaxTilings = max(b.MaxTilings, 0)
	b.MaxOps = cmp.Or(max(b.MaxOps, 0), tile.DefaultMaxOps)
	b.MaxValuesPerDim = cmp.Or(max(b.MaxValuesPerDim, 0), tile.DefaultMaxValuesPerDim)
	b.MaxReadyWindow = cmp.Or(max(b.MaxReadyWindow, 0), sched.DefaultMaxReadyWindow)
	b.MaxCandidateSets = cmp.Or(max(b.MaxCandidateSets, 0), sched.DefaultMaxCandidateSets)
	return b
}

// DefaultBudget returns a budget suitable for CLI use: a broad tiling
// sample and exhaustive (24-permutation) baseline.
func DefaultBudget() Budget {
	return Budget{MaxTilings: 24, MaxOps: 4096, MaxValuesPerDim: 10,
		Dataflows: loop.All(), HintedOoO: true}
}

// QuickBudget returns a small budget for tests and benchmarks.
func QuickBudget() Budget {
	return Budget{MaxTilings: 4, MaxOps: 512, MaxValuesPerDim: 6,
		Dataflows: loop.Canonical(), MaxReadyWindow: 12, MaxCandidateSets: 32,
		HintedOoO: true}
}

// BudgetNames lists the names BudgetByName accepts.
func BudgetNames() []string { return []string{"quick", "default"} }

// BudgetByName returns the budget a name from BudgetNames stands for.
func BudgetByName(name string) (Budget, error) {
	switch name {
	case "quick":
		return QuickBudget(), nil
	case "default":
		return DefaultBudget(), nil
	}
	return Budget{}, fmt.Errorf("unknown budget %q (want %s)", name, strings.Join(BudgetNames(), ", "))
}

// Options configure a search.
type Options struct {
	Arch      arch.Config
	Budget    Budget
	Metric    Metric
	Priority  sched.Priority
	MemPolicy spm.Policy
	// DisableInPlace / DisablePruning switch off the corresponding
	// scheduler optimizations (ablations).
	DisableInPlace, DisablePruning bool
	// DisableDominance switches off dominance pruning: the search then
	// schedules every enumerated tiling to completion instead of
	// skipping candidates whose lower bound (LowerBound) already
	// exceeds the incumbent best. Pruning never changes BestOoO or
	// BestStatic — it only skips provably-worse work — but it does
	// shrink Candidates to the non-dominated survivors, so callers
	// that sweep the full tiling space (Figure 1 scatter plots, the
	// layersweep example) set this.
	DisableDominance bool
	// Workers is the parallelism of the search (0 = GOMAXPROCS): the
	// caller plus at most Workers-1 helpers, whose panics reach the caller.
	Workers int
	// Cache, when non-nil, memoizes layer results across calls.
	Cache *Cache
	// FuseDepth, when positive, lets a network search schedule across
	// layer boundaries: after the per-layer search, runs of up to
	// FuseDepth+1 consecutive shape-compatible layers are rescheduled as
	// one fused graph (consumer tiles depending on the producer output
	// tiles covering their input halo, assembled on-chip when resident),
	// and a fused segment replaces its layers in the totals only when it
	// strictly beats their summed layerwise cycles AND traffic. 0 — the
	// default — is bit-identical to the layerwise search. Layer searches
	// themselves are unaffected; the fusion pass runs on top of their
	// results. Ignored by SearchLayer.
	FuseDepth int
	// FaultPlan, when non-nil and non-empty, additionally evaluates the
	// degraded mode of each layer's best OoO schedule: the schedule is
	// repaired around the plan (sched.Repair) and the result is attached
	// as LayerResult.Degraded, so callers see both the nominal and the
	// degraded makespan. The plan participates in the cache key.
	FaultPlan *fault.Plan
	// Progress, when non-nil, receives ProgressEvent updates while the
	// search runs: candidates evaluated and the best score so far per
	// layer, per-layer completion during a network search, and
	// cache-hit/coalesced notices for lookups that avoid a search.
	// Progress never affects the result and is excluded from the cache
	// key, so callers with different callbacks still share one search.
	Progress ProgressFunc

	// sem is a shared worker-pool semaphore; SearchNetwork installs one
	// so nested layer searches share a single parallelism budget.
	sem chan struct{}
}

// SchedConfig derives the scheduler configuration of one run from the
// search options: everything except what differs per run (Order, Hint,
// Cutoff), which callers set on the result.
func (o Options) SchedConfig(m model.Model) sched.Config {
	return sched.Config{
		Arch:             o.Arch,
		Model:            m,
		Priority:         o.Priority,
		MemPolicy:        o.MemPolicy,
		DisableInPlace:   o.DisableInPlace,
		DisablePruning:   o.DisablePruning,
		MaxReadyWindow:   o.Budget.MaxReadyWindow,
		MaxCandidateSets: o.Budget.MaxCandidateSets,
	}
}

func (o Options) workers() int { return cmp.Or(max(o.Workers, 0), runtime.GOMAXPROCS(0)) }

// forEach runs work(0), ..., work(n-1) on the caller and at most
// workers-1 helpers: at one worker it starts no goroutine. A worker takes
// a slot of sem, if any, before it takes the next item and gives it back
// after, so items start in order even when other searches share the
// slots; none is taken once ctx is done or work has panicked. A panic is
// raised again on the caller, with its value, once every worker returned.
func forEach(ctx context.Context, n, workers int, sem chan struct{}, work func(i int)) {
	s := workLoops.Get().(*workLoop)
	s.ctx, s.n, s.sem, s.work = ctx, n, sem, work
	s.next.Store(0)
	for range min(workers, n) - 1 {
		s.wg.Add(1)
		go s.helper()
	}
	s.worker()
	s.wg.Wait()
	p := s.panicked.Swap(nil)
	s.ctx, s.sem, s.work = nil, nil, nil
	workLoops.Put(s)
	if p != nil {
		panic(*p)
	}
}

// workLoop is what the workers of one forEach share: pooled, so that a loop
// at one worker puts nothing on the heap.
type workLoop struct {
	ctx      context.Context
	n        int
	sem      chan struct{}
	work     func(i int)
	next     atomic.Int64
	panicked atomic.Pointer[any]
	wg       sync.WaitGroup
}

var workLoops = sync.Pool{New: func() any { return new(workLoop) }}

func (s *workLoop) helper() { defer s.wg.Done(); s.worker() }

// worker runs items until none is left, recording the first panic.
func (s *workLoop) worker() {
	defer func() {
		if r := recover(); r != nil {
			p := r
			s.panicked.CompareAndSwap(nil, &p)
		}
	}()
	for s.item() {
	}
}

// item runs the next item, if any is left.
func (s *workLoop) item() bool {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			return false
		}
		defer func() { <-s.sem }()
	}
	i := int(s.next.Add(1) - 1)
	more := i < s.n && s.panicked.Load() == nil && s.ctx.Err() == nil
	if more {
		s.work(i)
	}
	return more
}

// Candidate is the outcome of one tiling: its out-of-order schedule and
// the best static loop-order schedule for the same tiling.
type Candidate struct {
	Factors     tile.Factors
	OoO         *sched.Result
	Static      *sched.Result
	StaticOrder loop.Dataflow
}

// LayerResult is the outcome of searching one layer: the per-tiling
// candidates plus the best OoO and best static schedules overall.
//
// With dominance pruning active (the default), Candidates holds only
// the tilings with an out-of-order schedule that ran to completion:
// tilings whose lower bound exceeded the incumbent are skipped
// entirely, runs are abandoned as soon as the scheduler's floors on
// their final cycles and bytes score above the incumbent (which is
// most losing runs, early), and a surviving candidate's Static may be
// nil when every static run for it was abandoned. BestOoO, BestStatic
// and BestStaticOrder are identical with and without pruning;
// len(Candidates) and the effort counters are not. Set
// Options.DisableDominance to recover the exhaustive candidate list.
type LayerResult struct {
	Layer      layer.Conv
	Candidates []Candidate
	// CandidatesEnumerated / CandidatesPruned / SchedulesAborted count
	// search effort: tilings enumerated, tilings skipped by dominance
	// pruning before scheduling, and individual schedule runs
	// abandoned mid-way by the incumbent cutoff — runs made, so not the
	// dataflows skipped as repeats of an earlier op sequence. The last
	// two depend on how well the search prunes (and, with several
	// workers, on timing), never the other way round.
	CandidatesEnumerated int
	CandidatesPruned     int
	SchedulesAborted     int
	// BestOoO and BestStatic minimize the metric across tilings (and,
	// for the static baseline, dataflows).
	BestOoO         *sched.Result
	BestStatic      *sched.Result
	BestStaticOrder loop.Dataflow
	// Degraded is BestOoO repaired around FaultPlan (set only when the
	// search ran with Options.FaultPlan): the same tiling rescheduled
	// mid-makespan on whatever the plan leaves alive.
	Degraded *sched.Result
	// FaultPlan echoes the plan Degraded was evaluated under.
	FaultPlan *fault.Plan
	// memo is the cache entry's slot behind Memo; nil outside a cache.
	memo *atomic.Pointer[[]byte]
	// searched marks the copy a cache hands to the caller that ran the
	// search, not a hit or a coalesced wait.
	searched bool
}

// Speedup returns baseline latency / OoO latency (>1 means OoO wins).
func (lr *LayerResult) Speedup() float64 {
	return float64(lr.BestStatic.LatencyCycles) / float64(lr.BestOoO.LatencyCycles)
}

// TrafficReduction returns baseline traffic / OoO traffic.
func (lr *LayerResult) TrafficReduction() float64 {
	return float64(lr.BestStatic.TrafficBytes()) / float64(lr.BestOoO.TrafficBytes())
}

// DegradedRatio returns degraded makespan / nominal makespan (the
// graceful-degradation factor; 1 means the faults cost nothing), or 0
// when the search ran without a fault plan.
func (lr *LayerResult) DegradedRatio() float64 {
	if lr.Degraded == nil || lr.BestOoO == nil || lr.BestOoO.LatencyCycles == 0 {
		return 0
	}
	return float64(lr.Degraded.LatencyCycles) / float64(lr.BestOoO.LatencyCycles)
}

// SearchLayer runs the full per-layer search of Algorithm 1 (lines
// 2-11) for both the OoO scheduler and the static baseline.
func SearchLayer(l layer.Conv, opts Options) (*LayerResult, error) {
	return SearchLayerCtx(context.Background(), l, opts)
}

// SearchLayerCtx is SearchLayer with cancellation: the search aborts
// between tilings and between dataflow evaluations once ctx is done and
// returns ctx.Err(), like every error, wrapped with the layer's and the
// arch's names. Long-running callers (servers, interactive tools) use it
// to bound search time per request.
func SearchLayerCtx(ctx context.Context, l layer.Conv, opts Options) (*LayerResult, error) {
	if err := errors.Join(l.Validate(), loop.Validate(opts.Budget.Dataflows)); err != nil {
		return nil, err
	}
	var lr *LayerResult
	var err error
	if opts.Cache != nil {
		lr, err = opts.Cache.Layer(ctx, CacheKey(l, opts), l, opts)
	} else {
		lr, err = searchLayerWith(ctx, l, opts, scheduleTiling)
	}
	if err != nil {
		return nil, fmt.Errorf("%w for layer %s on %s", err, l.Name, opts.Arch.Name)
	}
	return lr, nil
}

// searchLayerWith is the search of the valid layer l around schedule
// (scheduleTiling, or in tests a reference it is held to). A cache
// shares its errors between callers, so they name neither layer nor arch.
func searchLayerWith(ctx context.Context, l layer.Conv, opts Options, schedule tilingScheduler) (*LayerResult, error) {
	tilings := Tilings(l, opts.Arch, opts.Budget)
	if len(tilings) == 0 {
		return nil, errors.New("search: no feasible tiling")
	}
	s := layerSearches.Get().(*layerSearch)
	defer s.release()
	s.ctx, s.l, s.opts, s.m, s.tilings, s.schedule = ctx, l, opts, model.New(opts.Arch), tilings, schedule
	if s.dataflows = opts.Budget.Dataflows; s.dataflows == nil {
		s.dataflows = loop.Canonical()
	}
	s.reporter = newProgressReporter(opts.Progress, opts.Metric, l.Name, len(tilings))

	// Dominance pruning: bound every tiling up front (closed form, no
	// grid), then schedule candidates in ascending-bound order so the
	// incumbent becomes competitive as early as possible. Results stay
	// indexed by the original enumeration position, so the final
	// reduction — and therefore every tie-break — is identical to the
	// exhaustive search.
	if !opts.DisableDominance && opts.Metric.monotone() {
		s.cut = &s.inc
	}
	s.recs = append(s.recs[:0], make([]tilingRun, len(tilings))...)
	var classes [16]tile.Class // every cut's classes, unless a tiling needs more
	for i, f := range tilings {
		c, _ := tile.CutsOf(l, f, classes[:0])
		s.recs[i].bound = boundOf(l, &c, s.m, opts.Arch.Cores)
		s.order = append(s.order, i)
	}
	if s.cut != nil {
		// Stable, so unique: the order sort.SliceStable gave, without
		// its reflective swapper.
		slices.SortStableFunc(s.order, func(a, b int) int {
			ba, bb := s.recs[a].bound, s.recs[b].bound
			sa, sb := opts.Metric.Score(ba.Cycles, ba.Traffic), opts.Metric.Score(bb.Cycles, bb.Traffic)
			switch {
			case better(sa, sb):
				return -1
			case better(sb, sa):
				return 1
			}
			return 0
		})
	}

	// Tilings start in ascending-bound order (forEach). With one worker
	// the incumbents each tiling prunes against — and so the
	// pruned/aborted/sets counts — also repeat exactly.
	forEach(ctx, len(s.order), opts.workers(), opts.sem, s.work)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lr := &LayerResult{Layer: l, CandidatesEnumerated: len(tilings)}
	n := 0 // the candidates: the tilings with an out-of-order schedule
	for _, r := range s.recs {
		if r.err == nil && r.c.OoO != nil {
			n++
		}
	}
	lr.Candidates = make([]Candidate, 0, n)
	for _, r := range s.recs {
		lr.SchedulesAborted += r.aborted
		switch {
		case r.err == errDominated:
			lr.CandidatesPruned++
			continue
		case r.err != nil:
			// A tiling that cannot be scheduled (SPM too fragmented for
			// its op footprint) is skipped, like infeasible tilings in
			// the paper's search.
			continue
		}
		if r.c.OoO != nil {
			lr.Candidates = append(lr.Candidates, r.c)
			if opts.Metric.beats(r.c.OoO, lr.BestOoO) {
				lr.BestOoO = r.c.OoO
			}
		}
		if r.c.Static != nil && opts.Metric.beats(r.c.Static, lr.BestStatic) {
			lr.BestStatic, lr.BestStaticOrder = r.c.Static, r.c.StaticOrder
		}
	}
	if lr.BestOoO == nil || lr.BestStatic == nil {
		return nil, errors.New("search: no schedulable tiling")
	}
	if !opts.FaultPlan.Empty() {
		deg, err := RepairResult(l, lr.BestOoO, opts.FaultPlan, opts)
		if err != nil {
			return nil, fmt.Errorf("search: degraded evaluation: %w", err)
		}
		lr.Degraded = deg
		lr.FaultPlan = opts.FaultPlan
	}
	return lr, nil
}

// tilingScheduler schedules one tiling's grid for a layer search:
// scheduleTiling, or in tests a reference it is held to.
type tilingScheduler func(context.Context, *tile.Grid, model.Model, []loop.Dataflow, Options, *incumbents) (Candidate, int, error)

// layerSearch is what the workers of one layer search share: its inputs,
// one record per tiling and their order, and its incumbents. It is
// pooled with its worker function bound once, so a search puts neither
// its options nor its loop state on the heap.
type layerSearch struct {
	ctx       context.Context
	l         layer.Conv
	opts      Options
	m         model.Model
	tilings   []tile.Factors
	dataflows []loop.Dataflow
	schedule  tilingScheduler
	reporter  *progressReporter
	recs      []tilingRun
	order     []int
	inc       incumbents
	cut       *incumbents // what runs are cut off against: &inc when pruning, else nil
	work      func(k int) // s.tiling, bound once per pooled state
}

var layerSearches = sync.Pool{New: func() any { s := new(layerSearch); s.work = s.tiling; return s }}

// release returns s to the pool holding nothing of its search: no
// schedule, options or context, only the records' and order's storage.
func (s *layerSearch) release() {
	clear(s.recs)
	*s = layerSearch{recs: s.recs[:0], order: s.order[:0], work: s.work}
	layerSearches.Put(s)
}

// tiling schedules the k-th tiling in order, unless the incumbents
// dominate its bound.
func (s *layerSearch) tiling(k int) {
	r := &s.recs[s.order[k]]
	if s.cut != nil && s.inc.dominated(r.bound, s.opts.Metric) {
		r.err = errDominated
		s.reporter.record(nil, true)
		return
	}
	grid, _ := tile.NewGridInto(gridPool.Get().(*tile.Grid), s.l, s.tilings[s.order[k]]) // an enumerated tiling of a valid layer
	r.c, r.aborted, r.err = s.schedule(s.ctx, grid, s.m, s.dataflows, s.opts, s.cut)
	gridPool.Put(grid)
	if r.err == nil {
		s.inc.observe(r.c, s.opts.Metric)
		s.reporter.record(r.c.OoO, false)
	} else if !isCancellation(r.err) {
		s.reporter.record(nil, false)
	}
}

// RepairResult repairs a schedule previously produced for layer l
// around plan, using the scheduler configuration implied by opts. It is
// the degraded-mode evaluation used by SearchLayer when
// Options.FaultPlan is set, exposed for callers that already hold a
// schedule (the CLI's seeded fault mode repairs after the search).
func RepairResult(l layer.Conv, r *sched.Result, plan *fault.Plan, opts Options) (*sched.Result, error) {
	if plan != nil {
		if err := plan.Validate(opts.Arch.Cores); err != nil {
			return nil, err
		}
	}
	grid, err := tile.NewGrid(l, r.Factors)
	if err != nil {
		return nil, err
	}
	m := model.New(opts.Arch)
	return sched.Repair(dfg.Build(grid, m), r, plan, opts.SchedConfig(m))
}

// Tilings returns the tilings a search of l on cfg under b schedules:
// those of the first limits escalate finds some tiling viable under.
func Tilings(l layer.Conv, cfg arch.Config, b Budget) []tile.Factors {
	var ts []tile.Factors
	escalate(cfg, b, func(lim tile.EnumLimits) bool { ts = tile.Enumerate(l, lim); return len(ts) > 0 })
	return ts
}

// escalate calls try with b's enumeration limits on cfg, relaxing the
// op-count cap and the values per dimension at most eight times until
// try finds a tiling viable: very large layers need more, smaller tiles.
func escalate(cfg arch.Config, b Budget, try func(tile.EnumLimits) bool) {
	b = b.resolved() // defaulted first, so escalation doubles the default
	lim := tile.EnumLimits{SPMBytes: cfg.SPMBytes, Cores: cfg.Cores, MaxTilings: b.MaxTilings, MaxOps: b.MaxOps, MaxValuesPerDim: b.MaxValuesPerDim}
	for i := 0; i < 8 && !try(lim); i++ {
		lim.MaxOps *= 2
		lim.MaxValuesPerDim += 4
	}
}

// tilingRun is a layer search's record of one tiling: its bound, then
// its candidate, error (errDominated: pruned) and runs abandoned.
type tilingRun struct {
	bound   Bound
	c       Candidate
	err     error
	aborted int
}

// maxOoOHints bounds how many dataflows additionally seed hinted OoO
// runs per tiling (the first entries of the dataflow list; the
// canonical order starts with the output-, input- and
// weight-stationary flows, which cover the three sharing patterns).
// Eligibility is by index in the list, also where an entry is skipped
// as a repeat: not the first three distinct sequences, which would hint
// with dataflows the full list never hinted with.
const maxOoOHints = 3

// errDominated marks a tiling skipped by dominance pruning (or one
// whose every schedule run was abandoned as dominated): not a failure,
// just provably-worse work the search did not perform.
var errDominated = errors.New("search: tiling dominated by incumbent")

// graphPool and gridPool hold the graphs scheduleTiling and the fusion
// pass and the grids a layer search have finished with, whose storage
// the next graph or grid is built into: no Result or Candidate points at
// either, so nothing reads one after its tiling or candidate segment.
var (
	graphPool = sync.Pool{New: func() any { return new(dfg.Graph) }}
	gridPool  = sync.Pool{New: func() any { return new(tile.Grid) }}
)

// scheduleTiling produces the OoO schedule and the best static schedule
// for one tiling's grid: the unhinted OoO run, then every distinct static
// order, then OoO hinted with the eligible ones not proved repeats. It
// aborts between runs when ctx is cancelled. With inc non-nil, each run
// carries a sched.Config.Cutoff that abandons it as soon as the
// scheduler's cycles and bytes floors score above the incumbent it would
// have to beat — by the very metric the final reduction compares with, so
// a run is dropped only when every schedule it could become loses that
// comparison; aborted counts them. A candidate may then come back with a
// nil Static (every static run dominated) or nil OoO (the unhinted run
// dominated while a later hinted run was not attempted or also dominated);
// a candidate with neither is reported as errDominated.
func scheduleTiling(ctx context.Context, grid *tile.Grid, m model.Model, dataflows []loop.Dataflow, opts Options, inc *incumbents) (Candidate, int, error) {
	graph := dfg.BuildInto(graphPool.Get().(*dfg.Graph), grid, m)
	defer graphPool.Put(graph)
	base := opts.SchedConfig(m)
	metric := opts.Metric
	aborted := 0
	c := Candidate{Factors: grid.F}
	var oooInc, staticInc *incumbent // nil: an exhaustive search, no cutoffs
	if inc != nil {
		oooInc, staticInc = &inc.ooo, &inc.static
	}
	// run schedules cfg. Its cutoff target is the incumbent in, tightened
	// to own — the tiling's schedule the run must also beat — where own
	// scores lower; a run abandoned by it is counted. A run that finishes
	// without beating keep, the tiling's schedule its result would have
	// to replace, is refused before it copies out a record (Config.Keep):
	// the caller's own strict keep, so nothing kept changes. Runs are
	// sequential, so one cutoff and one keep, made once, read the current
	// run's target and score.
	var lim struct{ target, keep float64 }
	cutoff := func(cycles, bytes int64) bool { return better(lim.target, metric.Score(cycles, bytes)) }
	kept := func(cycles, bytes int64) bool { return better(metric.Score(cycles, bytes), lim.keep) }
	run := func(cfg sched.Config, in *incumbent, own, keep *sched.Result) (*sched.Result, error) {
		if in != nil {
			lim.target, cfg.Cutoff = in.value(), cutoff
			if own != nil && better(metric.score(own), lim.target) {
				lim.target = metric.score(own)
			}
		}
		if keep != nil {
			lim.keep, cfg.Keep = metric.score(keep), kept
		}
		res, err := sched.Schedule(graph, cfg)
		if errors.Is(err, sched.ErrCutoff) {
			aborted++
		}
		return res, err
	}

	ooo, err := run(base, oooInc, nil, nil)
	switch {
	case err == nil:
		c.OoO = ooo
	case !errors.Is(err, sched.ErrCutoff):
		return Candidate{}, aborted, err
	}

	// A loop of one iteration orders nothing, so on most grids several
	// dataflows are one op sequence (loop.Reduce). A run is a function of
	// graph and config, cutoff targets only fall and both keeps are
	// strict: an entry repeating an earlier one's sequence could only
	// lose or tie, as a static order and — the earlier entry being as
	// eligible — as a hint, and is skipped whole. A static run that
	// cannot beat the static incumbent can never become BestStatic, so
	// the tiling's own static best does not tighten its cutoff.
	seen := make([][4]loop.Dim, 0, 24) // room for every permutation, off the heap
	hints := make([]loop.Dataflow, 0, maxOoOHints)
	var spare []int // every order, static or hint, is built here just before its run
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
		spare = loop.AppendOrder(spare[:0], graph, df)
		cfg := base
		cfg.Order = spare
		if res, err := run(cfg, staticInc, nil, c.Static); err == nil && metric.beats(res, c.Static) {
			c.Static, c.StaticOrder = res, df
		}
	}
	// The hint whose sequence is the op order (dfg.OpAt numbers ops in
	// this loop nest) is skipped when the unhinted run proves it repeats
	// (sched.Result.HintRepeats): its floors never pass that run's score,
	// which caps its target, and the global target has not moved since
	// that run finished under it (with one worker; above, counts are
	// timing-dependent anyway), so it would finish, tie, and lose the
	// strict keep.
	opOrder := loop.Reduce(grid, [4]loop.Dim{loop.OH, loop.OW, loop.OC, loop.IC})
	for _, df := range hints {
		if err := ctx.Err(); err != nil {
			return Candidate{}, aborted, err
		}
		if ooo != nil && c.OoO == ooo && ooo.HintRepeats() && loop.Reduce(grid, df.Perm) == opOrder {
			continue
		}
		spare = loop.AppendOrder(spare[:0], graph, df)
		cfg := base
		cfg.Hint = spare
		if res, err := run(cfg, oooInc, c.OoO, c.OoO); err == nil && metric.beats(res, c.OoO) {
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

// NetworkResult aggregates per-layer results end to end.
type NetworkResult struct {
	Network string
	Arch    string
	Layers  []*LayerResult
	// LayerSearches counts the layer searches the call ran: one per
	// distinct layer shape neither cached nor being searched by another
	// caller when the call looked it up.
	LayerSearches int
	// FuseDepth echoes Options.FuseDepth; Segments and Boundaries are
	// populated by the fusion pass when it is positive. Each segment
	// replaces its member layers' BestOoO schedules in Totals; every
	// layer boundary the pass visited gets one BoundaryDecision.
	FuseDepth  int
	Segments   []*FusedSegment
	Boundaries []BoundaryDecision
}

// fusedMask returns, per layer index, whether the layer is covered by a
// fused segment — or nil when no segment exists.
func (nr *NetworkResult) fusedMask() []bool {
	if len(nr.Segments) == 0 {
		return nil
	}
	mask := make([]bool, len(nr.Layers))
	for _, s := range nr.Segments {
		for i := s.First; i <= s.Last; i++ {
			mask[i] = true
		}
	}
	return mask
}

// Totals sums latency and traffic across layers for both schedulers.
// Layers covered by a fused segment contribute the segment's fused
// schedule to the OoO totals instead of their layerwise BestOoO; the
// static baseline stays layerwise.
func (nr *NetworkResult) Totals() (oooLat, staticLat, oooTraffic, staticTraffic int64) {
	mask := nr.fusedMask()
	for i, lr := range nr.Layers {
		staticLat += lr.BestStatic.LatencyCycles
		staticTraffic += lr.BestStatic.TrafficBytes()
		if mask != nil && mask[i] {
			continue
		}
		oooLat += lr.BestOoO.LatencyCycles
		oooTraffic += lr.BestOoO.TrafficBytes()
	}
	for _, s := range nr.Segments {
		oooLat += s.Result.LatencyCycles
		oooTraffic += s.Result.TrafficBytes()
	}
	return
}

// Speedup returns the end-to-end latency ratio baseline/OoO.
func (nr *NetworkResult) Speedup() float64 {
	oooLat, staticLat, _, _ := nr.Totals()
	return float64(staticLat) / float64(oooLat)
}

// TrafficReduction returns the end-to-end traffic ratio baseline/OoO.
func (nr *NetworkResult) TrafficReduction() float64 {
	_, _, oooT, staticT := nr.Totals()
	return float64(staticT) / float64(oooT)
}

// DegradedCycles sums the degraded makespans across layers, or 0 when
// the search ran without a fault plan. Fused layers contribute their
// segment's degraded schedule.
func (nr *NetworkResult) DegradedCycles() int64 {
	mask := nr.fusedMask()
	var total int64
	for i, lr := range nr.Layers {
		if mask != nil && mask[i] {
			continue
		}
		if lr.Degraded == nil {
			return 0
		}
		total += lr.Degraded.LatencyCycles
	}
	for _, s := range nr.Segments {
		if s.Degraded == nil {
			return 0
		}
		total += s.Degraded.LatencyCycles
	}
	return total
}

// DegradedRatio returns the end-to-end degraded/nominal latency ratio,
// or 0 without a fault plan.
func (nr *NetworkResult) DegradedRatio() float64 {
	deg := nr.DegradedCycles()
	oooLat, _, _, _ := nr.Totals()
	if deg == 0 || oooLat == 0 {
		return 0
	}
	return float64(deg) / float64(oooLat)
}

// networkSearch is what the workers of one network search share, pooled
// with its functions bound once, like layerSearch. Each layer searches
// under opts, the network's options with their progress stamped: the
// per-layer searches' candidate events carry the layers done, and each
// finished layer emits one LayerDone event (cache hits included — they
// produce no candidate events of their own).
type networkSearch struct {
	ctx      context.Context
	nr       *NetworkResult
	layers   []layer.Conv
	errs     []error
	opts     Options
	optsKey  []byte
	emit     ProgressFunc // the caller's progress
	done     atomic.Int64
	work     func(i int)         // s.layer
	progress func(ProgressEvent) // s.stamp
}

var networkSearches = sync.Pool{New: func() any {
	s := new(networkSearch)
	s.work, s.progress = s.layer, s.stamp
	return s
}}

func (s *networkSearch) layer(i int) {
	l := s.layers[i]
	s.nr.Layers[i], s.errs[i] = s.opts.Cache.Layer(s.ctx, layerKey(l, s.optsKey), l, s.opts)
	if s.emit != nil && s.errs[i] == nil {
		s.emit(ProgressEvent{Layer: l.Name, LayerDone: true, LayersDone: int(s.done.Add(1)), LayersTotal: len(s.layers)})
	}
}

func (s *networkSearch) stamp(ev ProgressEvent) {
	ev.LayersDone, ev.LayersTotal = int(s.done.Load()), len(s.layers)
	s.emit(ev)
}

// SearchNetwork searches every layer of the network. Layers run
// concurrently above one worker; repeated layer shapes are served from
// the cache.
func SearchNetwork(n nets.Network, opts Options) (*NetworkResult, error) {
	return SearchNetworkCtx(context.Background(), n, opts)
}

// SearchNetworkCtx is SearchNetwork with cancellation: once ctx is done
// the per-layer searches abort at their next tiling or dataflow
// boundary and the call returns ctx.Err().
func SearchNetworkCtx(ctx context.Context, n nets.Network, opts Options) (*NetworkResult, error) {
	if err := errors.Join(n.Validate(), loop.Validate(opts.Budget.Dataflows)); err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		opts.Cache = NewCache()
	}
	if opts.sem == nil { // one pool, whose slots every layer search's tilings take
		opts.sem = make(chan struct{}, opts.workers())
	}
	nr := &NetworkResult{Network: n.Name, Arch: opts.Arch.Name, Layers: make([]*LayerResult, len(n.Layers))}
	errs := make([]error, len(n.Layers))
	s := networkSearches.Get().(*networkSearch)
	s.ctx, s.nr, s.layers, s.errs, s.opts, s.emit = ctx, nr, n.Layers, errs, opts, opts.Progress
	s.optsKey = appendOptionsKey(s.optsKey[:0], opts) // once for all layers' keys
	if s.emit != nil {
		s.opts.Progress = s.progress
	}
	// No slot is held for a layer: a layer waiting on another's search for
	// its shape must not keep that search's tilings from the pool.
	forEach(ctx, len(n.Layers), opts.workers(), nil, s.work)
	*s = networkSearch{optsKey: s.optsKey, work: s.work, progress: s.progress}
	networkSearches.Put(s)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%w for layer %s on %s", err, n.Layers[i].Name, opts.Arch.Name)
		}
		if nr.Layers[i].searched {
			nr.LayerSearches++
		}
	}
	if err := fuseNetwork(ctx, nr, opts); err != nil {
		return nil, err
	}
	return nr, nil
}
