package search

import (
	"sync"

	"github.com/flexer-sched/flexer/internal/sched"
)

// ProgressEvent is one report from a running search. Layer-level
// events carry the candidate counters; SearchNetworkCtx additionally
// fills the network-level counters and emits one LayerDone event per
// finished layer. Cache lookups that avoid a search report themselves
// with CacheHit or Coalesced set so streaming callers still see one
// event per layer.
type ProgressEvent struct {
	// Layer names the layer the event concerns.
	Layer string
	// CandidatesDone / CandidatesTotal count the tilings scheduled so
	// far out of the enumerated candidates for this layer. Infeasible
	// tilings count as done, so Done always reaches Total.
	CandidatesDone  int
	CandidatesTotal int
	// CandidatesPruned counts the tilings skipped so far by dominance
	// pruning: their lower bound already exceeded the incumbent best, so
	// they were never scheduled. Pruned tilings count as done.
	CandidatesPruned int
	// BestScore is the lowest metric score across the OoO schedules
	// completed so far (0 until the first feasible candidate).
	BestScore float64
	// LayerDone marks the completion of this layer's search.
	LayerDone bool
	// LayersDone / LayersTotal track whole-network completion; both are
	// zero for single-layer searches.
	LayersDone  int
	LayersTotal int
	// CacheHit marks a lookup served from a completed cache entry.
	CacheHit bool
	// Coalesced marks a lookup that attached to another caller's
	// in-flight search instead of running its own.
	Coalesced bool
}

// ProgressFunc receives progress events: at one worker on the caller's
// goroutine, in order, and above one from several goroutines at once
// (candidate events for one layer are serialized, different layers of a
// network report independently) — so it must be safe for concurrent use
// and should return quickly: a slow callback stalls the search.
type ProgressFunc func(ProgressEvent)

// progressReporter serializes the candidate-level events of one layer
// search: it tracks candidates done and the best score so far, and
// invokes the callback under its lock so counters arrive monotonic.
type progressReporter struct {
	mu     sync.Mutex
	fn     ProgressFunc
	metric Metric
	layer  string
	total  int
	done   int
	pruned int
	best   float64
	has    bool
}

// newProgressReporter returns a reporter for one layer search, or nil
// when no callback is installed (the nil reporter ignores events).
func newProgressReporter(fn ProgressFunc, metric Metric, layer string, total int) *progressReporter {
	if fn == nil {
		return nil
	}
	return &progressReporter{fn: fn, metric: metric, layer: layer, total: total}
}

// record counts one tiling done and reports progress. ooo is its OoO
// schedule, nil when it has none; pruned marks a tiling skipped by
// dominance pruning, which counts as done so Done reaches Total.
func (p *progressReporter) record(ooo *sched.Result, pruned bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if pruned {
		p.pruned++
	}
	if ooo != nil && (!p.has || better(p.metric.score(ooo), p.best)) {
		p.best, p.has = p.metric.score(ooo), true
	}
	p.fn(ProgressEvent{
		Layer:            p.layer,
		CandidatesDone:   p.done,
		CandidatesTotal:  p.total,
		CandidatesPruned: p.pruned,
		BestScore:        p.best,
	})
}
