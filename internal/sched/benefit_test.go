package sched

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// remainUses is the engine's remaining-use table as the function of a
// tile that spm.Allocate takes, for tests that allocate by hand.
func (e *engine) remainUses(id tile.ID) int { return int(e.remain[e.gr.Num(id)]) }

// newTestEngine starts an engine, as Schedule would, for white-box
// tests of set evaluation and selection.
func newTestEngine(t testing.TB, gr *dfg.Graph, cfg Config) *engine {
	t.Helper()
	e := &engine{}
	if err := e.start(gr, cfg.withDefaults()); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvalSetFreshLoadsAreNotReuse: the memory benefit must only credit
// operands that were resident before the set; sharing a tile both ops
// load in this very set is "new data" (Figure 7's dataflow maps keep
// the reuse map and new-data map separate).
func TestEvalSetFreshLoadsAreNotReuse(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	e := newTestEngine(t, gr, Config{Arch: a})
	// Two initially ready ops sharing their weight tile (same oc,
	// different spatial): everything is cold, so reuse must be zero
	// even though the weight tile is shared within the set.
	var shared []int
	for _, i := range initialReady(gr) {
		if gr.Ops[i].OC == 0 {
			shared = append(shared, i)
		}
		if len(shared) == 2 {
			break
		}
	}
	if len(shared) != 2 || gr.Ops[shared[0]].Wt != gr.Ops[shared[1]].Wt {
		t.Fatalf("test graph lacks weight-sharing ready ops: %v", shared)
	}
	ev := e.evalSet(shared)
	if ev == nil {
		t.Fatal("cold set infeasible")
	}
	if ev.reused != 0 {
		t.Errorf("cold set counted %d bytes of reuse", ev.reused)
	}
	// The shared weight tile must still only be loaded once.
	wt := gr.Ops[shared[0]].Wt
	count := 0
	for _, ld := range ev.loads {
		if ld.id == wt {
			count++
		}
	}
	if count != 1 {
		t.Errorf("shared weight tile loaded %d times", count)
	}
}

// TestEvalSetCountsResidentReuse: operands already on-chip are credited
// per accessing op.
func TestEvalSetCountsResidentReuse(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	e := newTestEngine(t, gr, Config{Arch: a})
	var shared []int
	for _, i := range initialReady(gr) {
		if gr.Ops[i].OC == 0 {
			shared = append(shared, i)
		}
		if len(shared) == 2 {
			break
		}
	}
	wt := gr.Ops[shared[0]].Wt
	size := gr.Grid.Size(wt)
	if _, err := e.mem.Allocate(wt, size, e.remainUses); err != nil {
		t.Fatal(err)
	}
	e.mem.UnpinAll()
	ev := e.evalSet(shared)
	if ev == nil {
		t.Fatal("set infeasible")
	}
	if ev.reused != 2*size {
		t.Errorf("reuse = %d, want %d (both ops reuse the resident weight)", ev.reused, 2*size)
	}
}

// TestHintAnchorsWindow: with a dataflow hint the candidate window is
// the ready queue in hint order, so a weight-stationary hint makes the
// first issued set the first ops of the weight-stationary sequence.
func TestHintAnchorsWindow(t *testing.T) {
	a := testArch(2)
	gr := buildGraph(t, layer.NewConv("h", 12, 12, 64, 64, 3),
		tile.Factors{OH: 4, OW: 4, OC: 16, IC: 64}, a)
	ws := loop.Dataflow{Name: "ws", Perm: [4]loop.Dim{loop.OC, loop.IC, loop.OH, loop.OW}}
	hint := loop.Order(gr, ws)
	e := newTestEngine(t, gr, Config{Arch: a, Hint: hint})
	window := e.selectWindow()
	if len(window) == 0 {
		t.Fatal("empty window")
	}
	for i, op := range window {
		if op != hint[i] {
			t.Fatalf("window[%d] = op %d, want hint op %d", i, op, hint[i])
		}
	}
}

// TestHintedScheduleValid: a hinted run produces a valid schedule and
// the hint must be a valid order.
func TestHintedScheduleValid(t *testing.T) {
	a := testArch(2)
	gr := pressureGraph(t, a)
	for _, df := range loop.Canonical()[:3] {
		r, err := Schedule(gr, Config{Arch: a, Hint: loop.Order(gr, df)})
		if err != nil {
			t.Fatalf("%s: %v", df, err)
		}
		validateSchedule(t, gr, r, a.Cores)
	}
	bad := make([]int, len(gr.Ops))
	if _, err := Schedule(gr, Config{Arch: a, Hint: bad}); err == nil {
		t.Fatal("invalid hint accepted")
	}
}

// TestBenefitFirstNarrowsUnderThrash: when every full-width set must
// evict valuable data, the scheduler may issue a narrower set with
// higher benefit. Construct a machine whose SPM fits one weight tile
// plus a few activations, so full-width mixed-weight sets thrash.
func TestBenefitFirstNarrowsUnderThrash(t *testing.T) {
	// Four cores but only two spatial blocks and two oc blocks: a
	// full-width set always needs two 72 KiB weight tiles, which a
	// 144 KiB scratchpad cannot hold next to the activations, so the
	// scheduler must issue narrower sets.
	a := arch.New("tight", 4, 144<<10, 32)
	l := layer.NewConv("n", 4, 4, 512, 128, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 4, OW: 2, OC: 64, IC: 64})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	r, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, r, a.Cores)
	narrow := 0
	for _, s := range r.Sets {
		if len(s.Ops) < a.Cores {
			narrow++
		}
	}
	if narrow == 0 {
		t.Skip("machine wide enough; thrash case not triggered")
	}
}

// TestAllWidthsConsidered: the best set is chosen across widths, not
// just the first feasible width (regression for width-first selection).
func TestAllWidthsConsidered(t *testing.T) {
	a := testArch(4)
	gr := pressureGraph(t, a)
	r, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, r, a.Cores)
	// SetsEvaluated must cover more than one width's worth of
	// combinations on a pressure graph.
	if r.SetsEvaluated <= len(r.Sets) {
		t.Errorf("only %d sets evaluated for %d issued", r.SetsEvaluated, len(r.Sets))
	}
}

// initialReady returns the ops of gr that no op precedes, in index order.
func initialReady(gr *dfg.Graph) []int {
	var ready []int
	for i, p := range gr.PendingInto(nil) {
		if p == 0 {
			ready = append(ready, i)
		}
	}
	return ready
}
