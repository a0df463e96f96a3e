package sched

import (
	"slices"

	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// loadRec is one pending load memory operation of the tile id,
// numbered n. gather marks a fused consumer input assembled on-chip from
// resident producer outputs instead of loaded from DRAM.
type loadRec struct {
	id     tile.ID
	n      int32
	size   int64
	gather bool
}

// setEval is the outcome of placing one candidate operation set in the
// scratchpad: the memory operations it requires and the quantities the
// priority function ranks.
type setEval struct {
	ops    []int
	loads  []loadRec
	spills []spm.Eviction
	sums
	util float64 // SPM utilization after the set
}

// sums are the priority inputs (Section 4.3) that add up op by op as a
// set is placed — which is what lets a set that extends another start
// from the other's totals.
type sums struct {
	reused     int64 // bytes of operand accesses served from the SPM
	spillCost  int64 // sum of size x maxRefCount over evictions
	evicted    int64 // total evicted bytes (PriorityMinSpill)
	loadBytes  int64 // bytes brought on-chip
	spillBytes int64 // dirty bytes written back to make room
	memLat     int64 // DMA cycles of the set's memory operations
}

// benefit returns the memory benefit of Section 4.3:
// reused data - spilled data weighted by max ref count.
func (ev *setEval) benefit() int64 { return ev.reused - ev.spillCost }

// movedBytes returns all data movement caused by the set.
func (ev *setEval) movedBytes() int64 { return ev.loadBytes + ev.spillBytes }

// place makes the operands of ev.ops resident and pinned in the
// engine's scratchpad, op by op, recording in ev the loads and
// evictions that takes and the priority inputs they add up to. It
// reports false when an operand cannot be placed, leaving the
// scratchpad partly modified. It is deterministic in the scratchpad and
// remaining-use state, which is what lets apply repeat the placement
// the set walk made and rolled back instead of keeping its scratchpad.
func (e *engine) place(ev *setEval) bool {
	e.fresh = e.fresh[:0]
	for _, op := range ev.ops {
		if !e.placeOp(ev, op) {
			return false
		}
	}
	ev.util = e.mem.Utilization()
	return true
}

// placeOp places the operands of one more op of the set ev describes,
// on top of the ops placed before it (e.fresh lists what those brought
// on-chip). On failure the scratchpad and ev are left partly modified.
func (e *engine) placeOp(ev *setEval, opIdx int) bool {
	op, ns := &e.gr.Ops[opIdx], e.gr.Operands(opIdx)
	// The output tile: a first write only reserves space; an
	// accumulation step must bring the partial sum back on-chip if it
	// was spilled.
	return e.touch(ev, &op.In, ns[0], true) && e.touch(ev, &op.Wt, ns[1], true) && e.touch(ev, &op.Out, ns[2], op.ReadsPsum)
}

// touch makes tile id, numbered n, resident and pinned for the set ev
// describes; a tile that has to be brought on-chip is a load of the set
// when load is set, and only reserved space otherwise.
func (e *engine) touch(ev *setEval, id *tile.ID, n int32, load bool) bool {
	mem := e.mem
	size := e.gr.SizeOf(n)
	if mem.PinNum(n) {
		// Tiles brought on-chip by this very set: sharing them within
		// the set avoids a second load but is "new data", not reuse —
		// the paper's dataflow maps (Fig. 7) keep the two separate and
		// the memory benefit only credits data that was already
		// resident. A set touches at most 3 x #cores tiles, so a linear
		// scan beats a map.
		if !slices.Contains(e.fresh, n) {
			ev.reused += size
		}
		return true
	}
	// A fused consumer input whose covering producer outputs are all
	// still resident is assembled on-chip (a gather) instead of loaded
	// from DRAM. The sources are pinned for the rest of the set so no
	// later allocation evicts data the gather reads; if even then the
	// input cannot be placed, the pins are rolled back and the plain
	// DRAM load is tried before giving up on the set.
	gather := false
	e.pinned = e.pinned[:0]
	if load && id.Kind == tile.In && id.L > 0 {
		if ots := e.gr.Covering(*id); len(ots) > 0 {
			gather = true
			for _, ot := range ots {
				if !mem.Has(ot) {
					gather = false
					break
				}
			}
			if gather {
				for _, ot := range ots {
					if !mem.Pinned(ot) {
						mem.Pin(ot)
						e.pinned = append(e.pinned, ot)
					}
				}
			}
		}
	}
	e.fresh = append(e.fresh, n)
	evs, err := mem.AllocateBound(*id, n, size, e.remain)
	if err != nil && gather {
		for _, ot := range e.pinned {
			mem.Unpin(ot)
		}
		gather = false
		evs, err = mem.AllocateBound(*id, n, size, e.remain)
	}
	if err != nil {
		return false
	}
	if load {
		ev.loads = append(ev.loads, loadRec{id: *id, n: n, size: size, gather: gather})
		if gather {
			// Served from on-chip producers: counts as reuse for the
			// memory-benefit priority and moves no off-chip bytes.
			ev.reused += size
			ev.memLat += e.cfg.Model.GatherCycles(size)
		} else {
			ev.loadBytes += size
			ev.memLat += e.cfg.Model.TransferCycles(size)
		}
	}
	for _, sp := range evs {
		ev.spills = append(ev.spills, sp)
		ev.evicted += sp.Size
		ev.spillCost += sp.Size * int64(min(sp.RemainUses, e.cfg.Arch.Cores))
		if sp.Dirty {
			ev.spillBytes += sp.Size
			ev.memLat += e.cfg.Model.TransferCycles(sp.Size)
		}
	}
	return true
}
