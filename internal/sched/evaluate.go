package sched

import (
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// loadRec is one pending load memory operation. gather marks a fused
// consumer input assembled on-chip from resident producer outputs
// instead of loaded from DRAM.
type loadRec struct {
	id     tile.ID
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

	// Priority inputs (Section 4.3).
	reused     int64   // bytes of operand accesses served from the SPM
	spillCost  int64   // sum of size x maxRefCount over evictions
	evicted    int64   // total evicted bytes (PriorityMinSpill)
	loadBytes  int64   // bytes brought on-chip
	spillBytes int64   // dirty bytes written back to make room
	util       float64 // SPM utilization after the set
	memLat     int64   // DMA cycles of the set's memory operations
}

// benefit returns the memory benefit of Section 4.3:
// reused data - spilled data weighted by max ref count.
func (ev *setEval) benefit() int64 { return ev.reused - ev.spillCost }

// movedBytes returns all data movement caused by the set.
func (ev *setEval) movedBytes() int64 { return ev.loadBytes + ev.spillBytes }

// evalSet simulates issuing ops as one parallel set. It returns nil
// when the set's operands cannot all be made resident (the scratchpad
// cannot hold them even after evicting every unpinned block). The ops
// slice is copied; callers keep ownership.
//
// The simulation runs in place on the engine's scratchpad between a
// checkpoint and a rollback, so many candidate sets can be compared
// side-effect-free without copying the scratchpad per set; apply
// commits the winner by placing it again for real. Evaluations are
// recycled through the engine's free list (releaseEval), so losing
// candidates cost no steady-state allocation.
func (e *engine) evalSet(ops []int) *setEval {
	e.nEval++
	ev := e.getEval()
	ev.ops = append(ev.ops, ops...)
	e.mem.Checkpoint()
	ok := e.place(ev)
	e.mem.Rollback()
	if !ok {
		e.releaseEval(ev)
		return nil
	}
	return ev
}

// place makes the operands of ev.ops resident and pinned in the
// engine's scratchpad, recording in ev the loads and evictions that
// takes and the priority inputs they add up to. It reports false when
// an operand cannot be placed, leaving the scratchpad partly modified.
// It is deterministic in the scratchpad and remaining-use state, which
// is what lets apply repeat an evaluation instead of keeping its
// scratchpad.
func (e *engine) place(ev *setEval) bool {
	mem := e.mem
	cores := e.cfg.Arch.Cores

	// Tiles brought on-chip by this very set: sharing them within the
	// set avoids a second load but is "new data", not reuse — the
	// paper's dataflow maps (Fig. 7) keep the two separate and the
	// memory benefit only credits data that was already resident. A set
	// touches at most 3 x #cores tiles, so a linear scan beats a map.
	e.fresh = e.fresh[:0]
	isFresh := func(id tile.ID) bool {
		for _, f := range e.fresh {
			if f == id {
				return true
			}
		}
		return false
	}

	touch := func(id tile.ID, load bool) bool {
		size := e.gr.Size(id)
		if mem.Has(id) {
			if !isFresh(id) {
				ev.reused += size
			}
			mem.Pin(id)
			return true
		}
		// A fused consumer input whose covering producer outputs are all
		// still resident is assembled on-chip (a gather) instead of
		// loaded from DRAM. The sources are pinned for the rest of the
		// set so no later allocation evicts data the gather reads; if
		// even then the input cannot be placed, the pins are rolled back
		// and the plain DRAM load is tried before giving up on the set.
		gather := false
		var pinned []tile.ID
		if load && e.fused && id.Kind == tile.In && id.L > 0 {
			if ots := e.gr.Covering(id); len(ots) > 0 {
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
							pinned = append(pinned, ot)
						}
					}
				}
			}
		}
		e.fresh = append(e.fresh, id)
		evs, err := mem.AllocateBound(id, size, e.remain)
		if err != nil && gather {
			for _, ot := range pinned {
				mem.Unpin(ot)
			}
			gather = false
			evs, err = mem.AllocateBound(id, size, e.remain)
		}
		if err != nil {
			return false
		}
		if load {
			ev.loads = append(ev.loads, loadRec{id: id, size: size, gather: gather})
			if gather {
				// Served from on-chip producers: counts as reuse for the
				// memory-benefit priority and moves no off-chip bytes.
				ev.reused += size
			} else {
				ev.loadBytes += size
			}
		}
		for _, sp := range evs {
			ev.spills = append(ev.spills, sp)
			ev.evicted += sp.Size
			maxRef := sp.RemainUses
			if maxRef > cores {
				maxRef = cores
			}
			ev.spillCost += sp.Size * int64(maxRef)
			if sp.Dirty {
				ev.spillBytes += sp.Size
			}
		}
		return true
	}

	for _, opIdx := range ev.ops {
		op := &e.gr.Ops[opIdx]
		// The output tile: a first write only reserves space; an
		// accumulation step must bring the partial sum back on-chip if
		// it was spilled.
		if !touch(op.In, true) || !touch(op.Wt, true) || !touch(op.Out, op.ReadsPsum) {
			return false
		}
	}
	ev.util = mem.Utilization()
	for _, sp := range ev.spills {
		if sp.Dirty {
			ev.memLat += e.cfg.Model.TransferCycles(sp.Size)
		}
	}
	for _, ld := range ev.loads {
		if ld.gather {
			ev.memLat += e.cfg.Model.GatherCycles(ld.size)
		} else {
			ev.memLat += e.cfg.Model.TransferCycles(ld.size)
		}
	}
	return true
}
