package sched

import (
	"reflect"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/tile"
)

// cloneResult copies r into storage of its own, its sets' ops included.
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	c := *r
	c.OpRecords, c.MemRecords, c.setOps = slices.Clone(r.OpRecords), slices.Clone(r.MemRecords), slices.Clone(r.setOps)
	c.Sets = slices.Clone(r.Sets)
	for i := range c.Sets {
		c.Sets[i].Ops = slices.Clone(c.Sets[i].Ops)
	}
	return &c
}

// TestScheduleIntoWritesOver holds ScheduleInto to its contract over the
// rule cases — out of order, hinted, single-layer and fused — each also
// under a fault plan and, on a single layer, in a static order. Written over the schedule of
// the case before, a longer or a shorter one, a run returns that Result
// holding what Schedule returns, every set's ops a window of one array.
// A run its cutoff abandons, one its keep refuses, one that fails and
// one with an invalid order leave their dst as it was; the failing one
// is a tiling no op of which fits the scratchpad. A finished run on
// the engine the written run used leaves both the written result and the
// one Schedule returned as they were: neither shares the engine's storage.
func TestScheduleIntoWritesOver(t *testing.T) {
	draws := 40
	if testing.Short() {
		draws = 12
	}
	always := func(int64, int64) bool { return true }
	var cases []walkCase
	for _, c := range ruleCases(t, draws) {
		static, faulted := c, c
		static.name, static.cfg.Order, static.cfg.Hint = c.name+"/static", seq(len(c.gr.Ops)), nil
		faulted.name = c.name + "/fault"
		faulted.cfg.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: c.cfg.Arch.Cores - 1, Cycle: 1500}},
			DMA: []fault.Derate{{From: 500, To: 4000, Factor: 1.5}}}
		cases = append(cases, c, faulted)
		if c.gr.LastLayer() == 0 { // Schedule refuses a static order on a fused graph
			cases = append(cases, static)
		}
	}
	tiny := arch.New("tiny", 2, 4096, 32) // no op of this tiling fits its scratchpad
	cases = append(cases, walkCase{name: "too large for its SPM", cfg: Config{Arch: tiny},
		gr: buildGraph(t, layer.NewConv("big", 32, 32, 64, 64, 3), tile.Factors{OH: 32, OW: 32, OC: 64, IC: 64}, tiny)})
	var prev *Result
	longer, shorter, failed := 0, 0, 0
	for _, c := range cases {
		unchanged := func(what string, got *Result, err error, dst, before *Result) {
			t.Helper()
			if got != nil || err == nil || !reflect.DeepEqual(dst, before) {
				t.Errorf("%s: %s returned %p, %v and changed its dst", c.name, what, got, err)
			}
		}
		bad := c.cfg
		bad.Order = []int{-1}
		before := cloneResult(prev)
		got, err := ScheduleInto(prev, c.gr, bad)
		unchanged("an invalid order", got, err, prev, before)

		want, wantErr := Schedule(c.gr, c.cfg)
		if wantErr != nil {
			got, err := ScheduleInto(prev, c.gr, c.cfg)
			unchanged("a failing run", got, err, prev, before)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: written over, a run fails with %v; Schedule with %v", c.name, err, wantErr)
			}
			failed++
			continue
		}
		if prev != nil && len(prev.OpRecords) > len(want.OpRecords) {
			longer++
		} else if prev != nil && len(prev.OpRecords) < len(want.OpRecords) {
			shorter++
		}
		wantBefore := cloneResult(want)
		got, err = ScheduleInto(prev, c.gr, c.cfg)
		if err != nil || prev != nil && got != prev || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: written over %p, a run returns %p, %v; Schedule returns another schedule", c.name, prev, got, err)
		}
		off := 0
		for i, s := range got.Sets {
			if len(s.Ops) == 0 || cap(s.Ops) != len(s.Ops) || &s.Ops[0] != &got.setOps[off] {
				t.Fatalf("%s: set %d's ops are not the next window of one array", c.name, i)
			}
			off += len(s.Ops)
		}

		written := cloneResult(got)
		for _, cfg := range []Config{{Cutoff: always}, {Keep: func(int64, int64) bool { return false }}} {
			cut := c.cfg
			cut.Cutoff, cut.Keep = cfg.Cutoff, cfg.Keep
			r, err := ScheduleInto(got, c.gr, cut)
			unchanged("a run its cutoff abandons or its keep refuses", r, err, got, written)
			if err != ErrCutoff && err != ErrNotKept {
				t.Errorf("%s: a cut or refused run fails with %v", c.name, err)
			}
		}
		if !reflect.DeepEqual(want, wantBefore) {
			t.Errorf("%s: a later run changed the result Schedule returned", c.name)
		}
		prev = want
	}
	t.Logf("%d runs: %d written over a longer schedule, %d over a shorter one, %d failing", len(cases), longer, shorter, failed)
	if longer == 0 || shorter == 0 || failed == 0 {
		t.Error("the cases missed a dst longer or shorter than its run, or a failing run")
	}
}
