// Package verify independently checks that a generated schedule is
// executable on the modelled machine. It replays the schedule's compute
// and DMA records — without reusing any scheduler state — and confirms:
//
//   - every op of the graph is scheduled exactly once, on a core the
//     machine has,
//   - chain and cross-layer dependencies are respected in time,
//   - per-core compute intervals do not overlap, DMA transfers do not
//     overlap on the shared channel,
//   - every input and weight tile an op reads was loaded (or, in a
//     fused graph, gathered) before the op starts, and that load had
//     completed,
//   - a fused consumer input is gathered only after its covering
//     producer outputs are computed, and loaded from DRAM only after
//     they were written there,
//   - every output tile of the last layer reaches off-chip memory,
//   - under a fault plan, no op starts on a dead core and flaky and
//     derated work takes at least its stretched latency.
//
// It does not track evictions, so it bounds neither resident bytes by
// the scratchpad capacity nor which version of a tile an op reads.
//
// The scheduler's own tests use it as an oracle; it is also exposed so
// downstream users can validate schedules they post-process.
package verify

import (
	"fmt"
	"sort"

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
	if err := opsOnce(gr, r); err != nil {
		return err
	}
	if err := dependencies(gr, r); err != nil {
		return err
	}
	if err := resources(r, cfg); err != nil {
		return err
	}
	if err := residency(gr, r); err != nil {
		return err
	}
	if err := crossLayer(gr, r); err != nil {
		return err
	}
	if err := outputsReachDRAM(gr, r); err != nil {
		return err
	}
	if plan.Empty() {
		return nil
	}
	return faults(gr, r, cfg, plan)
}

// faults checks the fault-plan obligations of a degraded schedule.
func faults(gr *dfg.Graph, r *sched.Result, cfg arch.Config, plan *fault.Plan) error {
	if err := plan.Validate(cfg.Cores); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, rec := range r.OpRecords {
		if death, dead := plan.DeathCycle(rec.NPU); dead && rec.Start >= death {
			return fmt.Errorf("verify: op %d starts at %d on core %d, dead since %d",
				rec.Op, rec.Start, rec.NPU, death)
		}
		if s := plan.Slowdown(rec.NPU, rec.Start); s > 1 {
			if want := fault.Scale(gr.Ops[rec.Op].Cycles, s); rec.End-rec.Start < want {
				return fmt.Errorf("verify: op %d on flaky core %d runs [%d,%d), want >= %d cycles (slowdown %g)",
					rec.Op, rec.NPU, rec.Start, rec.End, want, s)
			}
		}
	}
	m := model.New(cfg)
	for _, rec := range r.MemRecords {
		if f := plan.DMAFactor(rec.Start); f > 1 {
			if want := fault.Scale(m.TransferCycles(rec.Bytes), f); rec.End-rec.Start < want {
				return fmt.Errorf("verify: %s of %v starts at %d in a %gx derate window but takes %d cycles, want >= %d",
					rec.Kind, rec.Tile, rec.Start, f, rec.End-rec.Start, want)
			}
		}
	}
	return nil
}

func opsOnce(gr *dfg.Graph, r *sched.Result) error {
	if len(r.OpRecords) != len(gr.Ops) {
		return fmt.Errorf("verify: %d op records for %d graph ops", len(r.OpRecords), len(gr.Ops))
	}
	seen := make([]bool, len(gr.Ops))
	for _, rec := range r.OpRecords {
		if rec.Op < 0 || rec.Op >= len(gr.Ops) {
			return fmt.Errorf("verify: record references op %d outside graph", rec.Op)
		}
		if seen[rec.Op] {
			return fmt.Errorf("verify: op %d scheduled twice", rec.Op)
		}
		seen[rec.Op] = true
		if rec.Start < 0 || rec.End <= rec.Start {
			return fmt.Errorf("verify: op %d has interval [%d,%d)", rec.Op, rec.Start, rec.End)
		}
	}
	return nil
}

func dependencies(gr *dfg.Graph, r *sched.Result) error {
	start := make([]int64, len(gr.Ops))
	end := make([]int64, len(gr.Ops))
	for _, rec := range r.OpRecords {
		start[rec.Op], end[rec.Op] = rec.Start, rec.End
	}
	for i := range gr.Ops {
		if p := gr.Pred(i); p >= 0 && start[i] < end[p] {
			return fmt.Errorf("verify: op %d starts at %d before predecessor %d ends at %d",
				i, start[i], p, end[p])
		}
		for _, c := range gr.CrossPreds(i) {
			if start[i] < end[c] {
				return fmt.Errorf("verify: op %d starts at %d before cross-layer predecessor %d ends at %d",
					i, start[i], c, end[c])
			}
		}
	}
	return nil
}

func resources(r *sched.Result, cfg arch.Config) error {
	byNPU := make(map[int][]sim.OpRecord)
	for _, rec := range r.OpRecords {
		if rec.NPU < 0 || rec.NPU >= cfg.Cores {
			return fmt.Errorf("verify: op %d on core %d of %d", rec.Op, rec.NPU, cfg.Cores)
		}
		byNPU[rec.NPU] = append(byNPU[rec.NPU], rec)
	}
	for npu, recs := range byNPU {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		for i := 1; i < len(recs); i++ {
			if recs[i].Start < recs[i-1].End {
				return fmt.Errorf("verify: core %d ops %d and %d overlap", npu, recs[i-1].Op, recs[i].Op)
			}
		}
	}
	mems := append([]sim.MemRecord(nil), r.MemRecords...)
	sort.Slice(mems, func(i, j int) bool { return mems[i].Start < mems[j].Start })
	for i := 1; i < len(mems); i++ {
		if mems[i].Start < mems[i-1].End {
			return fmt.Errorf("verify: DMA transfers %v and %v overlap", mems[i-1].Tile, mems[i].Tile)
		}
	}
	return nil
}

// residency replays the DMA sequence and checks that each op's input
// and weight tiles were loaded before it runs, and that a load of each
// had completed by its start. Residency is construction-ordered: the
// k-th DMA record happens "before" the ops issued after it, which
// matches how the scheduler allocates (timing may overlap, but space was
// reserved at issue time). Evictions are not explicit in the record
// stream (clean drops have no DMA record), so a tile once loaded counts
// as resident for good: the replay neither sees a stale copy nor bounds
// resident bytes by the scratchpad.
func residency(gr *dfg.Graph, r *sched.Result) error {
	// Merge op and mem records in issue order. The scheduler appends
	// to both slices as it proceeds, and issue order is what governs
	// the allocator state; replay both streams in timestamp order with
	// mem records applied first at equal times. avail records the first
	// arrival time (load End) of each tile loaded so far: an operand is
	// usable once some load of it has completed. Later reloads do not
	// tighten the bound — clean evictions leave no DMA record, so
	// residency can only be bounded by the first load.
	avail := make(map[tile.ID]int64)

	// Index mem records by start time for a two-pointer sweep.
	mems := append([]sim.MemRecord(nil), r.MemRecords...)
	sort.SliceStable(mems, func(i, j int) bool { return mems[i].Start < mems[j].Start })
	ops := append([]sim.OpRecord(nil), r.OpRecords...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })

	mi := 0
	for _, op := range ops {
		for ; mi < len(mems) && mems[mi].Start <= op.Start; mi++ {
			// A gather makes its tile resident exactly like a load; the
			// data just arrives from on-chip producers instead of DRAM.
			if m := mems[mi]; m.Kind == sim.Load || m.Kind == sim.Gather {
				if _, ok := avail[m.Tile]; !ok {
					avail[m.Tile] = m.End
				}
			}
		}
		o := &gr.Ops[op.Op]
		// Input and weight tiles must have been loaded at least once
		// before the op starts, and that load must have completed —
		// compute on in-flight data would read garbage on a real machine.
		// Outputs and partial sums are produced on-chip; the dependency
		// check orders their producers.
		for _, t := range []tile.ID{o.In, o.Wt} {
			at, loaded := avail[t]
			if !loaded {
				return fmt.Errorf("verify: op %d starts at %d but operand %v was never loaded",
					op.Op, op.Start, t)
			}
			if at > op.Start {
				return fmt.Errorf("verify: op %d starts at %d but operand %v only arrives at %d",
					op.Op, op.Start, t, at)
			}
		}
	}
	return nil
}

// crossLayer enforces the fused-graph residency contract on top of the
// construction-ordered residency sweep: a gather of a consumer input
// may not start before every covering producer output is fully
// computed, and a DRAM load of a fused consumer input is only legal if
// every covering producer output took an explicit round-trip through
// off-chip memory — a Spill or Writeback that started after the
// producer finished (so the copy is current, not a stale partial sum)
// and completed before the load starts. Layerwise schedules must not
// contain gathers at all.
func crossLayer(gr *dfg.Graph, r *sched.Result) error {
	if !gr.Fused() {
		for _, m := range r.MemRecords {
			if m.Kind == sim.Gather {
				return fmt.Errorf("verify: gather of %v in a non-fused schedule", m.Tile)
			}
		}
		return nil
	}
	end := make([]int64, len(gr.Ops))
	for _, rec := range r.OpRecords {
		end[rec.Op] = rec.End
	}
	type span struct{ start, end int64 }
	writes := make(map[tile.ID][]span) // off-chip copies per tile
	for _, m := range r.MemRecords {
		if m.Kind == sim.Spill || m.Kind == sim.Writeback {
			writes[m.Tile] = append(writes[m.Tile], span{m.Start, m.End})
		}
	}
	for _, m := range r.MemRecords {
		switch m.Kind {
		case sim.Gather:
			ots := gr.Covering(m.Tile)
			if len(ots) == 0 {
				return fmt.Errorf("verify: gather of %v, which has no covering producer outputs", m.Tile)
			}
			for _, ot := range ots {
				if fin := end[gr.FinalOp(ot)]; m.Start < fin {
					return fmt.Errorf("verify: gather of %v starts at %d before producer %v finishes at %d",
						m.Tile, m.Start, ot, fin)
				}
			}
		case sim.Load:
			if m.Tile.Kind != tile.In || m.Tile.L == 0 {
				continue
			}
			for _, ot := range gr.Covering(m.Tile) {
				fin := end[gr.FinalOp(ot)]
				ok := false
				for _, w := range writes[ot] {
					if w.start >= fin && w.end <= m.Start {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("verify: DRAM load of fused input %v at %d without a current off-chip copy of producer %v (finished at %d)",
						m.Tile, m.Start, ot, fin)
				}
			}
		}
	}
	return nil
}

// outputsReachDRAM checks that every output tile of the final layer is
// written off-chip. Fused intermediate outputs are exempt: once their
// consumers are served they may be dropped on-chip without a writeback,
// which is the fusion traffic win.
func outputsReachDRAM(gr *dfg.Graph, r *sched.Result) error {
	last := gr.LastLayer()
	g := gr.Grids()[last]
	written := make(map[tile.ID]bool)
	for _, m := range r.MemRecords {
		if m.Kind == sim.Writeback || m.Kind == sim.Spill {
			written[m.Tile] = true
		}
	}
	for h := 0; h < g.NOH; h++ {
		for w := 0; w < g.NOW; w++ {
			for c := 0; c < g.NOC; c++ {
				id := g.OutTile(h, w, c)
				id.L = last
				if !written[id] {
					return fmt.Errorf("verify: output tile %v never written off-chip", id)
				}
			}
		}
	}
	return nil
}
