package sched

// Schedule repair: given a fault plan and an already-built schedule,
// keep the prefix that started before the first disruption and re-plan
// everything else on whatever the plan leaves alive. This is the
// runtime answer to "core 2 just died mid-layer": the committed work
// (including ops draining on the dying core) stands, the scratchpad
// keeps what it holds, and the list scheduler resumes from the fault
// cycle with the reduced machine.

import (
	"fmt"
	"slices"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/sim"
)

// Repair re-plans nominal around plan and returns the degraded
// schedule. The scheduler is deterministic, so a schedule is its
// sequence of issued sets, and the machine at any point of it is what
// issuing those sets again leaves behind. Repair re-executes nominal's
// sets in order on a reset engine, through the apply every schedule
// commits with, and commits the longest prefix of them whose records
// all start before the plan's first disruption (an op already running
// when its core dies drains to completion: fail-stop with drain). Then
// it injects the plan, holds every core and the DMA channel until the
// fault cycle, and the run loop every schedule runs re-plans the rest.
// The scratchpad at the fault cycle is the nominal's, clean tiles and
// addresses included, so nothing committed is loaded or computed again.
//
// The prefix is re-executed without the plan: under one, BestNPU may
// pick another core than the healthy run did even before the first
// disruption. Each re-executed set must reproduce nominal's records bit
// for bit; a set that is empty, names an op that is not ready, does not
// fit the scratchpad or makes other records is an error. So nominal must
// be a complete schedule of gr under cfg's machine, model, MemPolicy and
// DisableInPlace: a schedule of another layer, tiling or config fails
// instead of coming back "repaired" as a mix of two.
//
// An empty plan, or one whose first disruption comes after every record
// of nominal has started, returns nominal unchanged. cfg's Order, Hint,
// cutoff and keep are ignored: repair is always out-of-order — the
// nominal op sequence is unachievable on the degraded machine, which is
// the point — and a degraded schedule is expected to overrun whatever
// target a cutoff or a keep encoded for the healthy one.
func Repair(gr *dfg.Graph, nominal *Result, plan *fault.Plan, cfg Config) (*Result, error) {
	cfg.Order, cfg.Hint, cfg.Cutoff, cfg.CutoffCycles, cfg.Keep = nil, nil, nil, 0, nil
	cfg.FaultPlan = plan
	cfg, err := cfg.checked()
	if err != nil {
		return nil, err
	}
	if plan.Empty() {
		return nominal, nil
	}
	cfg.FaultPlan = nil
	fc := plan.FirstDisruption()
	e := enginePool.Get().(*engine)
	defer e.recycle()

	// First pass: a set's records are known once it is applied; count the sets that commit.
	e.reset(gr, cfg)
	k, err := e.reexecute(nominal, nominal.Sets, fc)
	if err != nil {
		return nil, err
	}
	if k == len(nominal.Sets) {
		if e.nDone < len(gr.Ops) || len(nominal.OpRecords) != len(gr.Ops) {
			return nil, fmt.Errorf("sched: repair: the schedule's sets issue %d of the graph's %d ops and it records %d (a schedule of another layer or tiling?)",
				e.nDone, len(gr.Ops), len(nominal.OpRecords))
		}
		// What is left are the flush write-backs, which belong to no set.
		if !slices.ContainsFunc(nominal.MemRecords[len(e.tl.Mems()):], func(m sim.MemRecord) bool { return m.Start >= fc }) {
			return nominal, nil
		}
	}

	// Second pass: the committed sets alone, then the plan, and resume.
	e.reset(gr, cfg)
	if _, err := e.reexecute(nominal, nominal.Sets[:k], fc); err != nil {
		return nil, err
	}
	e.tl.SetFaults(plan)
	e.tl.Hold(fc)
	return e.run()
}

// reexecute commits sets in order, as the run that made nominal committed
// them, and checks that each makes nominal's next records. It stops
// after the first set with a record starting at or after fc and returns
// how many sets before it start every record before fc.
func (e *engine) reexecute(nominal *Result, sets []SetRecord, fc int64) (int, error) {
	for i, s := range sets {
		if len(s.Ops) == 0 {
			return 0, fmt.Errorf("sched: repair: set %d of the schedule is empty", i)
		}
		for j, op := range s.Ops {
			if !slices.Contains(e.ready, op) || slices.Contains(s.Ops[:j], op) {
				return 0, fmt.Errorf("sched: repair: set %d issues op %d, which is not ready (a schedule of another layer or tiling?)", i, op)
			}
		}
		nOps, nMems := len(e.tl.Ops()), len(e.tl.Mems())
		ev := e.getEval()
		ev.ops = append(ev.ops, s.Ops...)
		if err := e.apply(ev); err != nil {
			return 0, fmt.Errorf("sched: repair: set %d: %w", i, err)
		}
		ops, mems := e.tl.Ops()[nOps:], e.tl.Mems()[nMems:]
		if !isPrefix(ops, nominal.OpRecords[nOps:]) || !isPrefix(mems, nominal.MemRecords[nMems:]) {
			return 0, fmt.Errorf("sched: repair: set %d does not reproduce the schedule's records (a schedule of another layer, tiling or config?)", i)
		}
		if slices.ContainsFunc(ops, func(r sim.OpRecord) bool { return r.Start >= fc }) ||
			slices.ContainsFunc(mems, func(m sim.MemRecord) bool { return m.Start >= fc }) {
			return i, nil
		}
	}
	return len(sets), nil
}

// isPrefix reports whether s starts t.
func isPrefix[T comparable](s, t []T) bool {
	return len(s) <= len(t) && slices.Equal(s, t[:len(s)])
}
