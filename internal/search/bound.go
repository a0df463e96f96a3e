package search

import (
	"math"
	"sync/atomic"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Bound is a provable lower bound on the cost of *any* schedule of one
// tiling — out-of-order, static, or hinted, under any priority or
// memory policy. Dominance pruning compares Bound.Score against the
// actual score of an already-scheduled candidate (the incumbent): a
// tiling whose bound already exceeds the incumbent cannot contain the
// best schedule and is skipped without ever building its DFG.
type Bound struct {
	// Cycles is a latency floor: the maximum of the compute floor
	// (total op cycles spread perfectly over all cores), the longest
	// partial-sum chain plus its final write-back, and the serialized
	// DMA floor (every input and weight tile loaded at least once,
	// every output tile written back at least once, on one channel).
	Cycles int64
	// Traffic is a byte floor: the summed size of all distinct tiles
	// (cold loads of IN and WT, one final write of each OT).
	Traffic int64
}

// Score evaluates the metric at the bound. Because the metric is
// monotone in latency and traffic (for non-negative exponents), this
// never exceeds the metric score of any realizable schedule of the
// tiling.
func (b Bound) Score(m Metric) float64 { return m.Score(b.Cycles, b.Traffic) }

// monotone reports whether the metric is non-decreasing in both
// latency and traffic, the property dominance pruning relies on. The
// zero metric means the paper's default (both exponents 1).
func (m Metric) monotone() bool {
	m = m.orDefault()
	return m.LatExp >= 0 && m.TrafficExp >= 0 &&
		!math.IsNaN(m.LatExp) && !math.IsNaN(m.TrafficExp)
}

// LowerBound computes the dominance-pruning bound for one tiling of a
// layer. It runs in time linear in the tile counts (no DFG, no
// scheduling), which is orders of magnitude cheaper than evaluating
// the candidate.
//
// The three latency floors hold for every schedule the engine can
// produce:
//
//   - compute floor: ops never overlap on one core, so the makespan is
//     at least the summed op cycles divided by the core count;
//   - chain floor: the accumulation steps of one output tile are
//     serialized by true dependencies, and the finished tile must
//     still be written off-chip after the last step;
//   - DMA floor: every IN/WT tile is loaded at least once and every
//     OT tile written back at least once, and all transfers serialize
//     on the single DMA channel.
//
// The traffic floor is the byte sum of the same minimal transfer set.
// All but the chain are the grid's dfg.FloorOf, the totals the
// scheduler's own cutoff floors count down from.
func LowerBound(g *tile.Grid, m model.Model, cores int) Bound {
	opCycles, bytes, cycles := dfg.FloorOf(g, m)
	var dma, traffic int64
	for k := range tile.NumKinds {
		dma += cycles[k]
		traffic += bytes[k]
	}
	// The first output tile is the largest on every axis, so its chain —
	// its accumulation steps, then its write-back — is the longest.
	chain := m.TransferCycles(g.Size(g.OutTile(0, 0, 0)))
	for ic := range g.NIC {
		rows, cols, ochs, ichs := g.OpDims(0, 0, 0, ic)
		chain += m.ConvCycles(rows, cols, ochs, ichs, g.Layer.KerH, g.Layer.KerW)
	}
	compute := (opCycles + int64(cores) - 1) / int64(cores)
	return Bound{Cycles: max(compute, chain, dma), Traffic: traffic}
}

// incumbent tracks the best actual metric score observed so far across
// the worker pool of one layer search, as an atomically-updated
// float64. The zero value means "no incumbent yet" (+Inf).
type incumbent struct {
	bits atomic.Uint64
}

func (in *incumbent) value() float64 {
	b := in.bits.Load()
	if b == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(b)
}

// observe lowers the incumbent to s if s is smaller. Safe for
// concurrent use; lock-free CAS min.
func (in *incumbent) observe(s float64) {
	if math.IsNaN(s) {
		return
	}
	nb := math.Float64bits(s)
	if nb == 0 {
		nb = math.Float64bits(math.SmallestNonzeroFloat64)
	}
	for {
		ob := in.bits.Load()
		if ob != 0 && !better(s, math.Float64frombits(ob)) {
			return
		}
		if in.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// incumbents pairs the OoO and static score incumbents of one layer
// search. A tiling is dominated only when its bound exceeds *both*:
// the bound holds for any schedule of the tiling, so a tiling that
// could still improve the static baseline must not be skipped even if
// it cannot beat the OoO incumbent (and vice versa).
type incumbents struct {
	ooo    incumbent
	static incumbent
}

// dominated reports whether a tiling with the given bound is provably
// incapable of improving either best schedule. Strictly-greater is
// required: a bound equal to an incumbent could still realize an
// equal-score schedule, and equal scores keep their pre-pruning
// tie-break, so they are never skipped.
func (in *incumbents) dominated(b Bound, m Metric) bool {
	s := b.Score(m)
	return better(in.ooo.value(), s) && better(in.static.value(), s)
}

// observe lowers the incumbents to c's scores where c beats them.
func (in *incumbents) observe(c Candidate, m Metric) {
	if c.OoO != nil {
		in.ooo.observe(m.score(c.OoO))
	}
	if c.Static != nil {
		in.static.observe(m.score(c.Static))
	}
}
