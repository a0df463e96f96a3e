package search

import (
	"math"
	"sync/atomic"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Bound is a provable lower bound on the cost of *any* schedule of one
// tiling — out-of-order, static, or hinted, under any priority or
// memory policy. Dominance pruning compares a monotone metric at the
// bound, never above its score of any schedule of the tiling, with the
// score of an already-scheduled candidate (the incumbent): a tiling whose
// bound exceeds it cannot hold the best schedule and is never built.
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

// monotone reports whether the metric is non-decreasing in both
// latency and traffic, the property dominance pruning relies on. The
// zero metric means the paper's default (both exponents 1).
func (m Metric) monotone() bool {
	m = m.orDefault()
	return m.LatExp >= 0 && m.TrafficExp >= 0 &&
		!math.IsNaN(m.LatExp) && !math.IsNaN(m.TrafficExp)
}

// LowerBound computes the dominance-pruning bound for one tiling of a
// layer in closed form from its cuts (no DFG, scheduling or tile walk).
// Each floor holds for every schedule the engine can produce: ops never
// overlap on a core (compute: op cycles over the cores); an output
// tile's steps are serialized by true dependencies and it is still
// written off-chip (chain); every tile moves at least once, on the one
// DMA channel (DMA, and traffic). All but the chain are dfg.FloorOf,
// the totals the scheduler's cutoff floors count down from.
func LowerBound(g *tile.Grid, m model.Model, cores int) Bound {
	var classes [16]tile.Class
	c, _ := tile.CutsOf(g.Layer, g.F, classes[:0])
	return boundOf(g.Layer, &c, m, cores)
}

// boundOf is LowerBound of the tiling c cuts l into.
func boundOf(l layer.Conv, c *tile.Cuts, m model.Model, cores int) Bound {
	opCycles, bytes, cycles := dfg.FloorOf(l, c, m)
	dma, traffic := cycles[tile.In]+cycles[tile.Wt]+cycles[tile.Out], bytes[tile.In]+bytes[tile.Wt]+bytes[tile.Out]
	// The first output tile is full on every axis, so its chain — its
	// accumulation steps, then its write-back — is the longest.
	oh, ow, oc := c.Dim[0].Per, c.Dim[1].Per, c.Dim[2].Per
	chain := m.TransferCycles(int64(oh) * int64(ow) * int64(oc) * int64(l.ElemBytes))
	for _, ic := range c.Classes(3) {
		chain += int64(ic.N) * m.ConvCycles(oh, ow, oc, ic.Out, l.KerH, l.KerW)
	}
	compute := (opCycles + int64(cores) - 1) / int64(cores)
	return Bound{Cycles: max(compute, chain, dma), Traffic: traffic}
}

// LayerFloor returns the lowest cycles floor and the lowest traffic
// floor over every viable tiling of the valid layer l on cfg — every
// candidate value of each dimension, under b's MaxOps as escalate
// relaxes it — which need not be one tiling's: no schedule of this
// model does better on either axis. It is zero when no tiling is viable.
func LayerFloor(l layer.Conv, cfg arch.Config, b Budget) (lo Bound) {
	m := model.New(cfg)
	escalate(cfg, b, func(lim tile.EnumLimits) bool {
		lim.MaxValuesPerDim = -1
		tile.Walk(l, lim, func(c *tile.Cuts) {
			bd := boundOf(l, c, m, cfg.Cores)
			if lo != (Bound{}) {
				bd = Bound{Cycles: min(lo.Cycles, bd.Cycles), Traffic: min(lo.Traffic, bd.Traffic)}
			}
			lo = bd
		})
		return lo != Bound{}
	})
	return lo
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
// equal-score schedule, and equal scores keep the exhaustive search's
// tie-break, so they are never skipped.
func (in *incumbents) dominated(b Bound, m Metric) bool {
	s := m.Score(b.Cycles, b.Traffic)
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
