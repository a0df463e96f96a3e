// Package verify independently checks that a generated schedule is
// executable on the modelled machine. It replays the schedule's op and
// DMA records once, in machine order, without reusing any scheduler
// state, and confirms that:
//
//   - every op of the graph runs exactly once, on a core the machine
//     has, after its chain and cross-layer predecessors have ended;
//   - no two ops overlap on a core and no two transfers on the DMA
//     channel, and every transfer moves a tile of the graph;
//   - the input and weight tiles an op reads have arrived (loaded, or
//     in a fused graph gathered) by the time it starts;
//   - a fused consumer input is gathered only after its covering
//     producer outputs are computed, and loaded from DRAM only after
//     they were written there;
//   - a reload of a partial sum reads a current off-chip copy: no op
//     that writes the tile starts after its last spill and before the
//     load;
//   - every output tile of the last layer reaches off-chip memory;
//   - under a fault plan, no op starts on a dead core and flaky and
//     derated work takes at least its stretched latency.
//
// It does not track evictions, so it does not check resident bytes
// against the scratchpad capacity.
//
// The scheduler's tests use it as an oracle; downstream users can
// validate schedules they post-process with it.
package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Schedule replays r against gr and cfg and returns the first violation
// found, or nil.
func Schedule(gr *dfg.Graph, r *sched.Result, cfg arch.Config) error {
	return ScheduleFaults(gr, r, cfg, nil)
}

// ScheduleFaults is Schedule for a machine degraded by plan: on top of
// the nominal checks it confirms that no op starts on a core at or
// after the core's death cycle (in-flight work may drain past it), that
// ops starting inside a flaky window are stretched by at least the
// window's slowdown, and that DMA transfers starting inside a derate
// window take at least the derated latency. A nil or empty plan is the
// nominal check.
func ScheduleFaults(gr *dfg.Graph, r *sched.Result, cfg arch.Config, plan *fault.Plan) error {
	if len(r.OpRecords) != len(gr.Ops) {
		return fmt.Errorf("verify: %d op records for %d graph ops", len(r.OpRecords), len(gr.Ops))
	}
	if err := plan.Validate(cfg.Cores); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	ops := slices.Clone(r.OpRecords)
	slices.SortStableFunc(ops, func(a, b sim.OpRecord) int { return cmp.Compare(a.Start, b.Start) })
	mems := slices.Clone(r.MemRecords)
	slices.SortStableFunc(mems, func(a, b sim.MemRecord) int { return cmp.Compare(a.Start, b.Start) })
	v := &replay{gr: gr, plan: plan, model: model.New(cfg), dmaEnd: math.MinInt64, tiles: make([]tileState, gr.NumTiles()),
		end: make([]int64, len(gr.Ops)), coreEnd: make([]int64, max(cfg.Cores, 0))}
	// Machine order: by start cycle, a transfer first on a tie. A transfer
	// that starts on the cycle an op writes a tile precedes that write.
	for oi, mi := 0, 0; oi < len(ops) || mi < len(mems); {
		var err error
		if mi < len(mems) && (oi == len(ops) || mems[mi].Start <= ops[oi].Start) {
			err, mi = v.transfer(mems[mi]), mi+1
		} else {
			err, oi = v.op(ops[oi]), oi+1
		}
		if err != nil {
			return err
		}
	}
	// Only the last layer's outputs, the graph's last tile numbers, must
	// leave the chip: dropping a fused intermediate one is fusion's win.
	for n := gr.NumTiles() - gr.Grids()[gr.LastLayer()].NumTiles(tile.Out); n < gr.NumTiles(); n++ {
		if !v.tiles[n].written {
			return fmt.Errorf("verify: output tile %v never written off-chip", gr.Tile(n))
		}
	}
	return nil
}

// replay is the machine state the pass carries, in tables by op index,
// by core and by the graph's tile number (dfg.Graph.NumOK).
type replay struct {
	gr      *dfg.Graph
	plan    *fault.Plan
	model   model.Model
	end     []int64 // by op: its end once visited, 0 before (a valid interval ends after cycle 0)
	coreEnd []int64 // by core: the end of the last op visited on it
	dmaEnd  int64   // the end of the last transfer visited
	tiles   []tileState
}

// tileState is what the pass has seen of one tile.
type tileState struct {
	arrived, written bool
	// stale marks an output tile an op has written since its latest
	// spill or writeback: its off-chip copy, if any, is out of date.
	stale     bool
	arrival   int64 // end of the first load or gather
	lastWrite int64 // start of the latest spill or writeback
}

// ended reports whether op i was visited and had ended by cycle t: one
// not yet visited starts no earlier than the record being checked.
func (v *replay) ended(i int, t int64) bool { return v.end[i] > 0 && v.end[i] <= t }

// op checks one op record against the state before it and records it.
func (v *replay) op(rec sim.OpRecord) error {
	i := rec.Op
	death, dead := v.plan.DeathCycle(rec.NPU)
	switch {
	case i < 0 || i >= len(v.end):
		return fmt.Errorf("verify: record references op %d outside graph", i)
	case v.end[i] > 0:
		return fmt.Errorf("verify: op %d scheduled twice", i)
	case rec.Start < 0 || rec.End <= rec.Start:
		return fmt.Errorf("verify: op %d has interval [%d,%d)", i, rec.Start, rec.End)
	case rec.NPU < 0 || rec.NPU >= len(v.coreEnd):
		return fmt.Errorf("verify: op %d on core %d of %d", i, rec.NPU, len(v.coreEnd))
	case rec.Start < v.coreEnd[rec.NPU]:
		return fmt.Errorf("verify: op %d starts at %d on core %d, overlapping the op before it", i, rec.Start, rec.NPU)
	case dead && rec.Start >= death:
		return fmt.Errorf("verify: op %d starts at %d on core %d, dead since %d", i, rec.Start, rec.NPU, death)
	}
	if s := v.plan.Slowdown(rec.NPU, rec.Start); s > 1 {
		if want := fault.Scale(v.gr.Ops[i].Cycles, s); rec.End-rec.Start < want {
			return fmt.Errorf("verify: op %d on flaky core %d runs [%d,%d), want >= %d cycles (slowdown %g)",
				i, rec.NPU, rec.Start, rec.End, want, s)
		}
	}
	if p := v.gr.Pred(i); p >= 0 && !v.ended(p, rec.Start) {
		return fmt.Errorf("verify: op %d starts at %d before predecessor %d ends", i, rec.Start, p)
	}
	for _, c := range v.gr.CrossPreds(i) {
		if !v.ended(c, rec.Start) {
			return fmt.Errorf("verify: op %d starts at %d before cross-layer predecessor %d ends", i, rec.Start, c)
		}
	}
	// The In and Wt tiles must have arrived: compute on in-flight data
	// reads garbage. The chain above orders the Out tile's writers.
	operands := v.gr.Operands(i)
	for _, n := range operands[:2] {
		if t := &v.tiles[n]; !t.arrived {
			return fmt.Errorf("verify: op %d starts at %d but operand %v was never loaded", i, rec.Start, v.gr.Tile(int(n)))
		} else if t.arrival > rec.Start {
			return fmt.Errorf("verify: op %d starts at %d but operand %v only arrives at %d",
				i, rec.Start, v.gr.Tile(int(n)), t.arrival)
		}
	}
	v.tiles[operands[2]].stale = true
	v.end[i], v.coreEnd[rec.NPU] = rec.End, rec.End
	return nil
}

// transfer checks one DMA record against the state before it and
// records what it moves.
func (v *replay) transfer(m sim.MemRecord) error {
	if m.Start < v.dmaEnd {
		return fmt.Errorf("verify: DMA transfer %s of %v at %d overlaps the one before it", m.Kind, m.Tile, m.Start)
	}
	if f := v.plan.DMAFactor(m.Start); f > 1 {
		lat := v.model.TransferCycles(m.Bytes)
		if m.Kind == sim.Gather {
			lat = v.model.GatherCycles(m.Bytes) // an on-chip copy, priced as the scheduler prices it
		}
		if want := fault.Scale(lat, f); m.End-m.Start < want {
			return fmt.Errorf("verify: %s of %v starts at %d in a %gx derate window but takes %d cycles, want >= %d",
				m.Kind, m.Tile, m.Start, f, m.End-m.Start, want)
		}
	}
	v.dmaEnd = m.End
	n, ok := v.gr.NumOK(m.Tile)
	if !ok {
		return fmt.Errorf("verify: %s of %v, which is not a tile of the graph", m.Kind, m.Tile)
	}
	t := &v.tiles[n]
	switch m.Kind {
	case sim.Spill, sim.Writeback:
		t.written, t.stale, t.lastWrite = true, false, m.Start
		return nil
	case sim.Gather, sim.Load:
		if t.stale {
			return fmt.Errorf("verify: %s of %v at %d reads an off-chip copy older than the tile's last write", m.Kind, m.Tile, m.Start)
		}
		// Only a fused consumer input has covering producer outputs. A
		// gather copies them, so each must have been computed; a DRAM load
		// reads their off-chip copies, so each needs a write that started
		// once it was — on a serial channel, it also ended before the load.
		ots := v.gr.Covering(m.Tile)
		if m.Kind == sim.Gather && len(ots) == 0 {
			return fmt.Errorf("verify: gather of %v, no fused consumer input (none is in a non-fused schedule)", m.Tile)
		}
		for _, ot := range ots {
			fin, w := v.end[v.gr.FinalOp(ot)], &v.tiles[v.gr.Num(ot)]
			if fin == 0 || m.Kind == sim.Gather && fin > m.Start {
				return fmt.Errorf("verify: %s of %v at %d before producer %v finishes", m.Kind, m.Tile, m.Start, ot)
			}
			if m.Kind == sim.Load && (!w.written || w.lastWrite < fin) {
				return fmt.Errorf("verify: DRAM load of %v at %d without a current off-chip copy of producer %v", m.Tile, m.Start, ot)
			}
		}
		if !t.arrived { // later reloads do not tighten the bound: clean evictions leave no record
			t.arrived, t.arrival = true, m.End
		}
	}
	return nil
}
