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
	"github.com/flexer-sched/flexer/internal/spm"
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
// by the out-of-order list scheduler starting at the fault cycle, on a
// timeline whose resources are charged with the committed prefix and
// which has the fault plan injected.
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
// nominal was built with; Order and Hint are ignored (repair is always
// out-of-order — the nominal op sequence is unachievable on the
// degraded machine, which is the point).
func Repair(gr *dfg.Graph, nominal *Result, plan *fault.Plan, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	if plan.Empty() {
		return nominal, nil
	}
	if err := plan.Validate(cfg.Arch.Cores); err != nil {
		return nil, err
	}
	committed := make([]bool, len(gr.Ops))
	if err := checkNominal(gr, nominal, committed); err != nil {
		return nil, err
	}
	clear(committed)
	fc := plan.FirstDisruption()

	// Partition the nominal schedule at the fault cycle: records that
	// started before it ran at nominal timing on a healthy machine and
	// are kept; the rest is discarded and re-planned.
	var commitOps []sim.OpRecord
	var commitMems []sim.MemRecord
	npuFree := make([]int64, cfg.Arch.Cores)
	for i := range npuFree {
		npuFree[i] = fc
	}
	dmaFree := fc
	opDone := make([]int64, len(gr.Ops))
	writeAt := make([]int64, gr.NumTiles())
	remain := gr.AppendUses(nil)
	nDone := 0
	for _, rec := range nominal.OpRecords {
		if rec.Start >= fc {
			continue
		}
		commitOps = append(commitOps, rec)
		committed[rec.Op] = true
		nDone++
		opDone[rec.Op] = rec.End
		op := &gr.Ops[rec.Op]
		in, out := gr.Num(op.In), gr.Num(op.Out)
		writeAt[out] = max(writeAt[out], rec.End)
		remain[in]--
		remain[gr.Num(op.Wt)]--
		remain[out]--
		// A fused consumer input's covering producer outputs carry one
		// extra use per covered input; release it when the input's own
		// uses are exhausted, mirroring the nominal engine.
		if gr.Fused() && op.In.L > 0 && remain[in] == 0 {
			for _, ot := range gr.Covering(op.In) {
				remain[gr.Num(ot)]--
			}
		}
		if rec.NPU >= 0 && rec.NPU < len(npuFree) && rec.End > npuFree[rec.NPU] {
			npuFree[rec.NPU] = rec.End
		}
	}
	for _, rec := range nominal.MemRecords {
		if rec.Start >= fc {
			continue
		}
		commitMems = append(commitMems, rec)
		if rec.End > dmaFree {
			dmaFree = rec.End
		}
	}

	// Reconstruct which tiles are dirty-resident at the fault cycle by
	// replaying the committed residency events in time order. Per tile
	// the event starts are strictly ordered by construction (a load
	// finishes before its consumer starts; a spill starts no earlier
	// than the write it flushes), so the last event decides.
	type tileEvent struct {
		num    int // tile number
		start  int64
		effect int8 // 0 load/gather (clean), 1 evict, 2 op write (dirty)
	}
	var events []tileEvent
	for _, m := range commitMems {
		var effect int8 = 1
		if m.Kind == sim.Load || m.Kind == sim.Gather {
			effect = 0
		}
		events = append(events, tileEvent{gr.Num(m.Tile), m.Start, effect})
	}
	for _, o := range commitOps {
		events = append(events, tileEvent{gr.Num(gr.Ops[o.Op].Out), o.Start, 2})
	}
	// Events of different tiles may start together; how such a tie falls
	// changes nothing, each tile's own events being strictly ordered.
	slices.SortFunc(events, func(a, b tileEvent) int { return cmp.Compare(a.start, b.start) })
	dirtyAt := make([]int64, gr.NumTiles()) // 1 + last write start of a dirty-resident tile, else 0
	var hasDRAM []bool                      // tile -> DRAM copy current as of last write
	if gr.Fused() {
		hasDRAM = make([]bool, gr.NumTiles())
	}
	for _, ev := range events {
		dirtyAt[ev.num] = 0
		if ev.effect == 2 {
			dirtyAt[ev.num] = ev.start + 1
		}
		if hasDRAM != nil && ev.effect != 0 {
			hasDRAM[ev.num] = ev.effect == 1
		}
	}

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
		if id := gr.Tile(n); id.Kind == tile.Out && id.L < gr.LastLayer() && remain[n] == 0 {
			continue
		}
		dirtyTiles = append(dirtyTiles, n)
	}
	slices.SortStableFunc(dirtyTiles, func(a, b int) int { return cmp.Compare(dirtyAt[b], dirtyAt[a]) })
	mem := spm.New(cfg.Arch.SPMBytes, cfg.MemPolicy)
	mem.SetInPlace(!cfg.DisableInPlace)
	mem.Bind(gr)
	for _, n := range dirtyTiles {
		id := gr.Tile(n)
		if _, err := mem.AllocateBound(id, gr.Size(id), remain); err != nil {
			return nil, fmt.Errorf("sched: repair cannot retain live tile %s: %w", id, err)
		}
		mem.SetDirty(id, true)
	}
	mem.UnpinAll()

	// Resume the list scheduler on the leftover ops with the committed
	// prefix charged to the timeline and the fault plan injected. An
	// uncommitted op waits on every uncommitted predecessor, chain and
	// cross-layer alike (committed ops never have uncommitted preds:
	// a pred finishes before its successor starts, hence before fc).
	pending := make([]int, len(gr.Ops))
	var ready []int
	for i := range gr.Ops {
		if committed[i] {
			continue
		}
		p := 0
		if cp := gr.Pred(i); cp >= 0 && !committed[cp] {
			p++
		}
		for _, c := range gr.CrossPreds(i) {
			if !committed[c] {
				p++
			}
		}
		pending[i] = p
		if p == 0 {
			ready = append(ready, i)
		}
	}
	cfg.Order, cfg.Hint = nil, nil
	e := &engine{
		cfg:     cfg,
		gr:      gr,
		mem:     mem,
		remain:  remain,
		ready:   ready,
		pending: pending,
		fused:   gr.Fused(),
		hasDRAM: hasDRAM,
		opDone:  opDone,
		writeAt: writeAt,
		availAt: make([]int64, gr.NumTiles()),
		tl:      sim.NewAt(npuFree, dmaFree),
		res:     newResult(gr),
		nDone:   nDone,
	}
	e.res.Factors = nominal.Factors
	e.tl.SetFaults(plan)
	e.rank = make([]int, len(gr.Ops))
	for i := range e.rank {
		e.rank[i] = i
	}
	for _, m := range commitMems {
		e.account(m)
	}
	total := len(gr.Ops)
	for e.nDone < total {
		e.mem.UnpinAll()
		ev := e.nextSetOoO()
		if ev == nil {
			return nil, errNoProgress
		}
		if err := e.apply(ev); err != nil {
			return nil, err
		}
	}
	e.flush()

	// Merge the committed prefix with the re-planned suffix. Both record
	// slices stay start-ordered: every new record starts at or after the
	// seeded resource-free cycles, which cover all committed ends.
	var sets []SetRecord
	for _, s := range nominal.Sets {
		var kept []int
		for _, op := range s.Ops {
			if committed[op] {
				kept = append(kept, op)
			}
		}
		if len(kept) > 0 {
			sets = append(sets, SetRecord{Ops: kept, Shared: s.Shared})
		}
	}
	e.res.Sets = append(sets, e.res.Sets...)
	e.res.OpRecords = append(commitOps, e.tl.Ops()...)
	e.res.MemRecords = append(commitMems, e.tl.Mems()...)
	// The makespan is when the merged work actually finishes — not
	// tl.Makespan(), whose resource seeds sit at the fault cycle even
	// when the plan disrupts nothing (fault past the nominal makespan).
	var makespan int64
	for _, rec := range e.res.OpRecords {
		makespan = max(makespan, rec.End)
	}
	for _, rec := range e.res.MemRecords {
		makespan = max(makespan, rec.End)
	}
	e.res.LatencyCycles = makespan
	e.res.SetsEvaluated = e.nEval
	e.res.SetsPruned = e.nPruned
	return e.res, nil
}
