package sched

// Schedule repair: given a fault plan and an already-built schedule,
// keep the prefix that started before the first disruption and re-plan
// everything else on whatever the plan leaves alive. This is the
// runtime answer to "core 2 just died mid-layer": the committed work
// (including ops draining on the dying core) stands, live partial sums
// stay in the scratchpad, and the list scheduler resumes from the fault
// cycle with the reduced machine.

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

// checkNominal reports whether nominal can be a schedule of gr — every
// op of gr issued exactly once, every transfer moving a tile of gr —
// before Repair indexes its tables by nominal's op indices and tile
// numbers. A schedule of another layer or tiling fails here instead of
// coming back "repaired" as a mix of two. seen is scratch, one false
// per op.
func checkNominal(gr *dfg.Graph, nominal *Result, seen []bool) error {
	if len(nominal.OpRecords) != len(gr.Ops) {
		return fmt.Errorf("sched: repair: schedule issues %d ops, the graph has %d (a schedule of another layer or tiling?)",
			len(nominal.OpRecords), len(gr.Ops))
	}
	for _, rec := range nominal.OpRecords {
		if rec.Op < 0 || rec.Op >= len(gr.Ops) || seen[rec.Op] {
			return fmt.Errorf("sched: repair: schedule issues op %d twice or outside the graph's %d ops", rec.Op, len(gr.Ops))
		}
		seen[rec.Op] = true
	}
	for _, rec := range nominal.MemRecords {
		if _, ok := gr.NumOK(rec.Tile); !ok {
			return fmt.Errorf("sched: repair: schedule moves %v, which is not a tile of the graph", rec.Tile)
		}
	}
	return nil
}

// Repair re-plans nominal around plan and returns the degraded
// schedule. Work that started before the plan's first disruption is
// committed verbatim (an op already running when its core dies drains
// to completion — fail-stop with drain); every other op is rescheduled
// by the out-of-order list scheduler starting at the fault cycle. It is
// the one engine started differently: instead of an empty machine at
// cycle 0, the committed prefix is replayed into a reset engine — every
// committed op retired, every committed transfer accounted, the
// timeline charged with both and busy until the fault cycle — the
// scratchpad is rebuilt, and the same run loop takes over.
//
// Scratchpad state is reconstructed from the committed records: dirty
// tiles (partial sums and unflushed outputs, which have no off-chip
// copy) are provably resident — every eviction of a dirty block leaves
// a Spill or Writeback record — and are re-admitted so chains resume
// without replaying compute. Clean tiles are dropped and re-loaded on
// demand: the scheduler's clean evictions and in-place overwrites are
// traceless, so a clean tile's residency at the fault cycle cannot be
// proven from the schedule alone and reusing it could read overwritten
// data on a real machine.
//
// An empty plan returns nominal unchanged; otherwise nominal must be a
// complete schedule of gr (checkNominal). cfg should be the config
// nominal was built with; its Order, Hint and cutoff are ignored
// (repair is always out-of-order — the nominal op sequence is
// unachievable on the degraded machine, which is the point — and a
// degraded schedule is expected to overrun whatever target a cutoff
// encoded for the healthy one).
func Repair(gr *dfg.Graph, nominal *Result, plan *fault.Plan, cfg Config) (*Result, error) {
	cfg.Order, cfg.Hint, cfg.Cutoff, cfg.CutoffCycles = nil, nil, nil, 0
	cfg.FaultPlan = plan
	cfg, err := cfg.checked()
	if err != nil {
		return nil, err
	}
	if plan.Empty() {
		return nominal, nil
	}
	committed := make([]bool, len(gr.Ops))
	if err := checkNominal(gr, nominal, committed); err != nil {
		return nil, err
	}
	clear(committed)
	fc := plan.FirstDisruption()
	e := enginePool.Get().(*engine)
	defer e.recycle()
	e.reset(gr, cfg)

	// Replay the part of the nominal schedule that started before the
	// fault cycle: it ran at nominal timing on a healthy machine and is
	// kept; the rest is discarded and re-planned. Along the way find
	// which tiles are dirty-resident at the fault cycle. Per tile the
	// last of its writes and transfers decides: a tile is dirty iff no
	// committed transfer of it starts after its last committed write,
	// and its off-chip copy is current iff a spill or
	// write-back does. Starts order them because a load finishes before
	// its consumer starts and a spill starts no earlier than the write
	// it flushes ends; should a transfer start on the cycle a write does,
	// the write decides.
	var commitOps []sim.OpRecord
	var commitMems []sim.MemRecord
	dirtyAt := make([]int64, gr.NumTiles()) // 1 + last write start of a dirty-resident tile, else 0
	for _, rec := range nominal.OpRecords {
		if rec.Start >= fc {
			continue
		}
		commitOps = append(commitOps, rec)
		committed[rec.Op] = true
		e.retire(rec)
		dirtyAt[gr.Num(gr.Ops[rec.Op].Out)] = rec.Start + 1
	}
	for _, rec := range nominal.MemRecords {
		if rec.Start >= fc {
			continue
		}
		commitMems = append(commitMems, rec)
		e.account(rec)
		if n := gr.Num(rec.Tile); rec.Start >= dirtyAt[n] {
			dirtyAt[n] = 0
			if rec.Kind == sim.Spill || rec.Kind == sim.Writeback {
				e.hasDRAM[n] = true
			}
		}
	}
	e.tl.Charge(commitOps, commitMems, fc)
	// What retiring the prefix woke includes the prefix itself. Ascending
	// op index is the order a from-scratch ready list starts in, and the
	// single-op fallback of nextSetOoO enumerates in list order.
	e.ready = slices.DeleteFunc(e.ready, func(op int) bool { return committed[op] })
	slices.Sort(e.ready)

	// Rebuild the scratchpad with exactly the dirty survivors, latest
	// written first, equal times in tile-number order (the stable sort
	// of an ascending list). They are guaranteed to fit: all were
	// simultaneously resident in the nominal schedule and the rebuilt
	// scratchpad is unfragmented. Everything stays pinned while placing
	// so no pick evicts another. Dead fused intermediates are dropped
	// traceless by the nominal engine (no writeback, no spill), so their
	// residency at the fault cycle cannot be proven and nothing will
	// ever read them again — they are left out, like flush leaves them.
	var dirtyTiles []int
	for n, at := range dirtyAt {
		if at == 0 {
			continue
		}
		if id := gr.Tile(n); id.Kind == tile.Out && id.L < gr.LastLayer() && e.remain[n] == 0 {
			continue
		}
		dirtyTiles = append(dirtyTiles, n)
	}
	slices.SortStableFunc(dirtyTiles, func(a, b int) int { return cmp.Compare(dirtyAt[b], dirtyAt[a]) })
	for _, n := range dirtyTiles {
		id := gr.Tile(n)
		if _, err := e.mem.AllocateBound(id, int32(n), gr.SizeOf(int32(n)), e.remain); err != nil {
			return nil, fmt.Errorf("sched: repair cannot retain live tile %s: %w", id, err)
		}
		e.mem.SetDirtyNum(int32(n), true)
	}

	// Resume: the loop every schedule runs, from the replayed state.
	res, err := e.run()
	if err != nil {
		return nil, err
	}

	// Merge the committed prefix with the re-planned suffix. Both record
	// slices stay start-ordered: every new record starts at or after the
	// fault cycle the timeline was charged to.
	var sets []SetRecord
	for _, s := range nominal.Sets {
		kept := slices.DeleteFunc(slices.Clone(s.Ops), func(op int) bool { return !committed[op] })
		if len(kept) > 0 {
			sets = append(sets, SetRecord{Ops: kept, Shared: s.Shared})
		}
	}
	res.Sets = append(sets, res.Sets...)
	res.OpRecords = append(commitOps, res.OpRecords...)
	res.MemRecords = append(commitMems, res.MemRecords...)
	// The makespan is when the merged work actually finishes — not the
	// timeline's, whose resources were charged to the fault cycle even
	// when the plan disrupts nothing (fault past the nominal makespan).
	res.LatencyCycles = 0
	for _, rec := range res.OpRecords {
		res.LatencyCycles = max(res.LatencyCycles, rec.End)
	}
	for _, rec := range res.MemRecords {
		res.LatencyCycles = max(res.LatencyCycles, rec.End)
	}
	return res, nil
}
