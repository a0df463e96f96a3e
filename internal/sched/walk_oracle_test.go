package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// The reference set formation, the oracle the prefix walk is checked
// against: it enumerates each set width on its own, widest first, signs
// every combination from scratch and evaluates every survivor from its
// first op between one checkpoint and one rollback.

// oracleNextSet is nextSet through the reference enumerators.
func (e *engine) oracleNextSet() *setEval {
	e.mem.UnpinAll()
	if e.cfg.Order != nil {
		return e.oracleNextSetInOrder()
	}
	return e.oracleNextSetOoO()
}

func (e *engine) oracleNextSetOoO() *setEval {
	window := e.selectWindow()
	prune := !e.cfg.DisablePruning
	if prune {
		e.seen.reset()
		e.stepFacts(window, true)
	}
	maxSize := e.cfg.Arch.Cores
	if len(window) < maxSize {
		maxSize = len(window)
	}
	var best *setEval
	for size := maxSize; size >= 1; size-- {
		cand := e.bestSetOfSize(window, size)
		if cand == nil {
			continue
		}
		if best == nil || e.less(cand, best) {
			e.releaseEval(best)
			best = cand
		} else {
			e.releaseEval(cand)
		}
	}
	if best == nil && len(window) < len(e.ready) {
		if prune {
			e.stepFacts(e.ready, false)
		}
		best = e.bestSetOfSize(e.ready, 1)
	}
	return best
}

// bestSetOfSize enumerates combinations of size ops from window in
// lexicographic order, prunes, evaluates, and returns the best feasible
// evaluation (nil if none).
func (e *engine) bestSetOfSize(window []int, size int) *setEval {
	var best *setEval
	prune := !e.cfg.DisablePruning
	combo := make([]int, size)
	set := make([]int, size)
	for i := range combo {
		combo[i] = i
	}
	for evaluated := 0; evaluated < e.cfg.MaxCandidateSets; {
		if prune && !e.seen.add(e.comboSignature(combo)) {
			e.nPruned++
		} else {
			for i, wi := range combo {
				set[i] = window[wi]
			}
			evaluated++
			if ev := e.evalSet(set); ev != nil {
				if best == nil || e.less(ev, best) {
					e.releaseEval(best)
					best = ev
				} else {
					e.releaseEval(ev)
				}
			}
		}
		// Advance to the next combination: bump the rightmost index that
		// still has room and reset everything after it.
		i := size - 1
		for i >= 0 && combo[i] == len(window)-size+i {
			i--
		}
		if i < 0 {
			break
		}
		combo[i]++
		for j := i + 1; j < size; j++ {
			combo[j] = combo[j-1] + 1
		}
	}
	return best
}

// comboSignature is the dataflow-map signature (see stepFacts) of the
// candidate set formed by the window positions in combo, computed from
// scratch: every reference counted, then every distinct tile's key
// insertion-sorted into the run.
func (e *engine) comboSignature(combo []int) []uint64 {
	f := &e.facts
	for _, wi := range combo {
		for _, t := range f.ops[wi] {
			f.count[t]++
		}
	}
	var sig []uint64
	for _, wi := range combo {
		for _, t := range f.ops[wi] {
			if f.count[t] == 0 {
				continue // already emitted
			}
			k := f.keys[t] | uint64(f.count[t])
			f.count[t] = 0
			i := len(sig)
			sig = append(sig, k)
			for ; i > 0 && sig[i-1] > k; i-- {
				sig[i] = sig[i-1]
			}
			sig[i] = k
		}
	}
	return sig
}

// evalSet simulates issuing ops as one parallel set, in place on the
// engine's scratchpad between a checkpoint and a rollback. It returns
// nil when the set's operands cannot all be made resident. The ops
// slice is copied; callers keep ownership.
func (e *engine) evalSet(ops []int) *setEval {
	e.nEval++
	ev := e.getEval()
	ev.ops = append(ev.ops, ops...)
	e.mem.Checkpoint()
	ok := e.place(ev)
	e.mem.Rollback()
	if !ok {
		oracleInfeasible++
		e.releaseEval(ev)
		return nil
	}
	return ev
}

// oracleInfeasible counts the sets evalSet found not to fit, so that a
// test can tell whether its cases reached the walk's infeasible-prefix
// path.
var oracleInfeasible int

// oracleNextSetInOrder re-places the whole set and drops one op from
// the tail per failure.
func (e *engine) oracleNextSetInOrder() *setEval {
	order := e.cfg.Order
	var set []int
	for i := e.pos; i < len(order) && len(set) < e.cfg.Arch.Cores; i++ {
		op := order[i]
		if p := e.gr.Pred(op); p >= 0 {
			inSet := false
			for _, s := range set {
				if s == p {
					inSet = true
					break
				}
			}
			if inSet {
				break
			}
		}
		set = append(set, op)
	}
	for len(set) > 0 {
		if ev := e.evalSet(set); ev != nil {
			e.pos += len(set)
			return ev
		}
		set = set[:len(set)-1]
	}
	return nil
}

// walkVsOracle schedules gr under cfg twice in lockstep — one engine
// forming sets with the walk, one with the reference enumerators — and
// requires at every step the same chosen ops with identical evaluation
// fields and the same work counters, and at the end the same schedule.
// A graph whose ops do not fit the machine must stall both sides at the
// same step.
func walkVsOracle(t testing.TB, name string, gr *dfg.Graph, cfg Config) (st walkStats) {
	t.Helper()
	steps, narrow := 0, 0
	got, want := newTestEngine(t, gr, cfg), newTestEngine(t, gr, cfg)
	for got.nDone < len(gr.Ops) {
		g, w := got.nextSet(), want.oracleNextSet()
		if got.nEval != want.nEval || got.nPruned != want.nPruned {
			t.Fatalf("%s step %d: walk has evaluated %d and pruned %d sets, the oracle %d and %d",
				name, steps, got.nEval, got.nPruned, want.nEval, want.nPruned)
		}
		if g == nil || w == nil {
			if g != nil || w != nil {
				t.Fatalf("%s step %d: walk chose %v, oracle %v", name, steps, g, w)
			}
			return walkStats{steps, narrow, got.nEval, got.nPruned, true}
		}
		if !reflect.DeepEqual(normalize(*g), normalize(*w)) {
			t.Fatalf("%s step %d: walk chose\n%+v\noracle\n%+v", name, steps, *g, *w)
		}
		if len(g.ops) < cfg.Arch.Cores {
			narrow++
		}
		if err := got.apply(g); err != nil {
			t.Fatalf("%s step %d: %v", name, steps, err)
		}
		if err := want.apply(w); err != nil {
			t.Fatalf("%s step %d: oracle: %v", name, steps, err)
		}
		if err := got.mem.CheckInvariants(); err != nil {
			t.Fatalf("%s step %d: %v", name, steps, err)
		}
		steps++
	}
	a, _ := got.finish(nil) // no Keep: never refused
	b, _ := want.finish(nil)
	if a.LatencyCycles != b.LatencyCycles || a.TrafficBytes() != b.TrafficBytes() ||
		a.SetsEvaluated != b.SetsEvaluated || a.SetsPruned != b.SetsPruned || !reflect.DeepEqual(a.Sets, b.Sets) {
		t.Fatalf("%s: walk ends at %d cycles / %d bytes / %d evaluated / %d pruned, oracle at %d / %d / %d / %d",
			name, a.LatencyCycles, a.TrafficBytes(), a.SetsEvaluated, a.SetsPruned,
			b.LatencyCycles, b.TrafficBytes(), b.SetsEvaluated, b.SetsPruned)
	}
	return walkStats{steps, narrow, a.SetsEvaluated, a.SetsPruned, false}
}

// walkStats is what one walkVsOracle run exercised: steps taken, how
// many of them issued fewer ops than the machine has cores, the walk's
// candidate sets evaluated and pruned, and whether the schedule stalled
// on an op that fits nowhere.
type walkStats struct {
	steps, narrow, evaluated, pruned int
	stalled                          bool
}

// walkCase is one randomly drawn scheduling problem: everything a
// schedule depends on, drawn from a source of small numbers (a
// rand.Rand or a fuzz input). The set walk's, the floors' and the
// verifier's randomized tests all read this one draw.
type walkCase struct {
	name string
	gr   *dfg.Graph
	cfg  Config
}

// drawWalkCase builds a case from next, which returns a number in
// [0, n); TestDrawnSchedulesVerify tabulates its ranges. It reports
// false when a drawn layer does not tile, or the layers make more ops
// than the oracle stays cheap on.
func drawWalkCase(next func(n int) int) (walkCase, bool) {
	cores := []int{1, 2, 3, 4, 8}[next(5)]
	a := arch.New("walk", cores, arch.KiB(int64(4+next(60))*int64(1+3*next(2))), 32<<next(2))
	cfg := Config{
		Arch:             a,
		Priority:         Priority(next(4)),
		MemPolicy:        spm.Policy(next(3)),
		DisablePruning:   next(4) == 0,
		DisableInPlace:   next(8) == 0,
		MaxReadyWindow:   []int{0, 3, 6, 12}[next(4)],
		MaxCandidateSets: []int{0, 1, 5, 32}[next(4)],
	}
	ker := []int{1, 3, 5}[next(3)]
	l1 := layer.NewConv("a", 4+next(20), 4+next(20), 8+next(89), 8+next(89), ker).WithStride(1 + next(2))
	g1, shape, ok := drawGrid(next, l1)
	if !ok || g1.NumOps() > maxDrawnOps {
		return walkCase{}, false
	}
	grids := []*tile.Grid{g1}
	if fused := next(3) == 0; fused {
		l2 := layer.NewConv("b", l1.OutH(), l1.OutW(), l1.OutC, 8+next(89), []int{1, 3, 5}[next(3)])
		g2, shape2, ok := drawGrid(next, l2)
		if !ok || g1.NumOps()+g2.NumOps() > maxDrawnFusedOps {
			return walkCase{}, false
		}
		grids, shape = append(grids, g2), shape+"+"+shape2
	}
	gr, err := dfg.BuildFused(grids, model.New(a))
	if err != nil {
		panic(err) // the second layer reads what the first writes: the pair is fusable
	}
	mode := "ooo"
	switch next(6) {
	case 0:
		if gr.LastLayer() == 0 { // a loop order is per grid: Schedule refuses one on a fused graph
			df := loop.All()[next(24)]
			mode, cfg.Order = "static "+df.Name, loop.Order(gr, df)
		}
	case 1:
		mode, cfg.Hint = "hinted", seq(len(gr.Ops))
		if gr.LastLayer() == 0 {
			df := loop.Canonical()[next(6)]
			mode, cfg.Hint = "hinted "+df.Name, loop.Order(gr, df)
		}
	}
	name := fmt.Sprintf("%dc/%dB/%v/%v/prune=%v/inplace=%v/w%d/c%d/%s/%s/%dops", cores, a.SPMBytes, cfg.Priority, cfg.MemPolicy,
		!cfg.DisablePruning, !cfg.DisableInPlace, cfg.MaxReadyWindow, cfg.MaxCandidateSets, mode, shape, len(gr.Ops))
	return walkCase{name: name, gr: gr, cfg: cfg}, true
}

// The largest graphs drawWalkCase returns, single-layer and fused.
const maxDrawnOps, maxDrawnFusedOps = 300, 400

// drawGrid tiles l with factors from 1 to the whole of each dimension,
// and names the grid for a case name: input, output channels, kernel,
// stride and tiling, "12x12x24>24k3s1@4x4x12x12".
func drawGrid(next func(n int) int, l layer.Conv) (*tile.Grid, string, bool) {
	if l.Validate() != nil {
		return nil, "", false
	}
	g, err := tile.NewGrid(l, tile.Factors{OH: 1 + next(l.OutH()), OW: 1 + next(l.OutW()), OC: 1 + next(l.OutC), IC: 1 + next(l.InC)})
	if err != nil {
		return nil, "", false
	}
	return g, fmt.Sprintf("%dx%dx%d>%dk%ds%d@%v", l.InH, l.InW, l.InC, l.OutC, l.KerH, l.StrideH, g.F), true
}

// TestSetWalkMatchesOracle: over drawWalkCase's layers, tilings, 1- to
// 8-core machines from starved to roomy, all four priorities, all three
// spill policies, pruning on and off, window and cap settings,
// single-layer and fused graphs, out of order, hinted and in a static
// order, the prefix walk forms at every step the set the per-width
// enumerator does, with the same evaluation, having evaluated and pruned
// as many candidates. The draw must have exercised what the walk adds:
// pruned candidates, sets narrower than the machine, infeasible
// prefixes (evaluations that placed nothing), capped widths, and the
// single-op fallback's stall.
func TestSetWalkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases, steps, narrow, evaluated, pruned, stalled, fused, static := 0, 0, 0, 0, 0, 0, 0, 0
	oracleInfeasible = 0
	target := 260
	if testing.Short() {
		target = 60
	}
	// The first case is one known to stall, which short mode's few
	// random draws may not reach.
	next := fuzzDraws(stalledSeed)
	for cases < target {
		c, ok := drawWalkCase(next)
		next = rng.Intn
		if !ok {
			continue
		}
		cases++
		st := walkVsOracle(t, c.name, c.gr, c.cfg)
		steps, narrow, evaluated, pruned = steps+st.steps, narrow+st.narrow, evaluated+st.evaluated, pruned+st.pruned
		if st.stalled {
			stalled++
		}
		if c.gr.LastLayer() > 0 {
			fused++
		}
		if c.cfg.Order != nil {
			static++
		}
	}
	t.Logf("%d cases (%d fused, %d static, %d stalled), %d steps (%d narrow), %d sets evaluated (%d infeasible), %d pruned",
		cases, fused, static, stalled, steps, narrow, evaluated, oracleInfeasible, pruned)
	if pruned == 0 || narrow == 0 || oracleInfeasible == 0 || stalled == 0 || fused == 0 || static == 0 || stalled > cases/2 {
		t.Error("the draw missed one of: pruned candidates, narrow sets, infeasible sets, stalled schedules, fused graphs, static orders")
	}
}

// stalledSeed is a FuzzSetWalk input that drawWalkCase turns into an
// 18-op out-of-order case on 8 cores and a 4 KiB scratchpad, which
// stalls after three steps.
var stalledSeed = []byte{4, 0, 0, 1, 0, 2, 1, 5, 3, 0, 1, 6, 5, 6, 15, 0, 4, 2, 10, 13, 1, 2}

// walkSeeds are FuzzSetWalk's seed corpus: four out-of-order cases,
// two of them fused, then stalledSeed and twinRichSeeds.
// TestPinnedSeedsDrawTheirCases names each.
var walkSeeds = append([][]byte{
	{3, 20, 0, 0, 0, 0, 1, 1, 3, 3, 0, 8, 8, 16, 16, 0, 3, 3, 11, 11, 1, 2},
	{4, 3, 0, 1, 2, 1, 1, 2, 1, 0, 1, 6, 8, 20, 1, 0, 4, 1, 8, 4, 0, 8, 0, 2, 5, 7, 3, 0},
	{1, 50, 1, 1, 3, 1, 0, 1, 0, 2, 1, 10, 10, 24, 8, 0, 4, 4, 15, 7, 0, 0, 0, 2, 3, 5, 11, 2},
	{3, 1, 0, 1, 1, 1, 3, 1, 0, 3, 1, 6, 9, 1, 4, 0, 3, 2, 7, 8, 1, 4},
	stalledSeed,
}, twinRichSeeds...)

// TestPinnedSeedsDrawTheirCases: each fuzz input a test names draws
// the case its comment describes, so that a change to drawWalkCase
// that moves one shows here rather than as a corpus entry that quietly
// tests something else.
func TestPinnedSeedsDrawTheirCases(t *testing.T) {
	for _, set := range []struct {
		seeds [][]byte
		draw  func(next func(n int) int) (walkCase, bool)
		want  []string
	}{
		{walkSeeds, drawWalkCase, []string{
			"4c/24576B/default/flexer/prune=true/inplace=true/w12/c32/ooo/12x12x24>24k1s1@4x4x12x12/36ops",
			"8c/7168B/min-spill/first-fit/prune=true/inplace=true/w3/c0/ooo/10x12x28>9k3s1@5x2x9x5+10x12x9>16k1s1@3x6x8x4/120ops",
			"2c/221184B/chain-depth/first-fit/prune=false/inplace=true/w0/c5/ooo/14x14x32>16k3s1@5x5x16x8+14x14x16>8k1s1@3x4x6x12/116ops",
			"4c/5120B/min-transfer/first-fit/prune=true/inplace=true/w0/c32/ooo/10x13x9>12k3s1@4x3x8x9/30ops",
			"8c/4096B/default/small-spill/prune=true/inplace=true/w12/c0/ooo/10x9x14>23k3s1@5x3x11x14/18ops",
			"4c/24576B/default/flexer/prune=true/inplace=true/w0/c0/hinted output-stationary/6x6x16>47k3s1@6x6x4x8/24ops",
			"8c/45056B/min-transfer/first-fit/prune=true/inplace=true/w12/c0/hinted input-stationary/6x6x8>47k1s1@6x6x4x4/24ops",
			"2c/12288B/default/small-spill/prune=true/inplace=true/w0/c5/hinted weight-stationary/6x6x12>47k3s1@6x6x4x4/36ops",
			"4c/258048B/default/flexer/prune=true/inplace=true/w0/c0/ooo/12x6x16>24k3s1@4x6x4x8/36ops",
			"4c/24576B/default/first-fit/prune=true/inplace=true/w6/c32/hinted weight-stationary/8x6x16>24k3s1@4x6x4x8/24ops",
			"8c/34816B/min-transfer/small-spill/prune=true/inplace=true/w12/c0/ooo/12x6x16>24k3s1@4x6x4x8/36ops",
		}},
		{floorSeeds, drawFloorCase, []string{
			"4c/24576B/default/flexer/prune=true/inplace=true/w12/c32/ooo/12x12x24>24k1s1@4x4x12x12/36ops/core1@652,flaky1@1070-1537x3.01008260984646",
			"8c/7168B/min-spill/first-fit/prune=true/inplace=true/w3/c0/hinted/10x12x28>9k3s1@5x2x9x5+10x12x9>16k1s1@3x6x8x4/120ops",
			"2c/221184B/chain-depth/first-fit/prune=false/inplace=true/w0/c5/ooo/14x14x32>16k3s1@5x5x16x8+14x14x16>8k1s1@3x4x6x12/116ops/core0@5274,dma@2224-6366x3.0263630320961497",
			"4c/16384B/min-spill/first-fit/prune=true/inplace=true/w6/c32/hinted input-stationary/7x10x38>46k3s1@6x6x15x13/48ops/core0@2781,flaky2@2112-3198x1.3869536236552942",
			"4c/16384B/default/flexer/prune=true/inplace=true/w0/c5/hinted/8x6x16>32k1s1@2x6x4x16+8x6x32>29k3s1@3x5x19x7/92ops/core0@2574,dma@3008-5812x6.258981536577139",
		}},
	} {
		if len(set.seeds) != len(set.want) {
			t.Fatalf("%d seeds, %d names", len(set.seeds), len(set.want))
		}
		for i, seed := range set.seeds {
			if c, ok := set.draw(fuzzDraws(seed)); !ok || c.name != set.want[i] {
				t.Errorf("seed %v draws %q (ok %v), want %q", seed, c.name, ok, set.want[i])
			}
		}
	}
}

// fuzzDraws turns a fuzz input into the source of small numbers a case
// is drawn from: one byte a draw, zeros once the input runs out.
func fuzzDraws(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// FuzzSetWalk draws the scheduling problem — graph, machine, priority,
// policy and limits — from the fuzz input and runs the walk against
// the oracle step by step. Run with `go test -fuzz=FuzzSetWalk`; the
// seed corpus runs in normal test mode.
func FuzzSetWalk(f *testing.F) {
	for _, seed := range walkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := drawWalkCase(fuzzDraws(data)); ok {
			walkVsOracle(t, c.name, c.gr, c.cfg)
		}
	})
}
