package sched

import (
	"bytes"
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

// The reference set formation: the scheduler's candidate enumeration as
// it was before it became one prefix walk, kept verbatim (scratch
// buffers made local) as the oracle the walk is checked against. It
// enumerates each set width on its own, widest first, signs every
// combination from scratch and evaluates every survivor from its first
// op between one checkpoint and one rollback.

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
	a, _ := got.finish() // no Keep: never refused
	b, _ := want.finish()
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

// walkCase is one randomly drawn scheduling problem for walkVsOracle:
// everything the walk's behaviour depends on, drawn from a source of
// small numbers (a rand.Rand or a fuzz input).
type walkCase struct {
	name string
	gr   *dfg.Graph
	cfg  Config
}

// drawWalkCase builds a case from next, which returns a number in
// [0, n). It reports false when the drawn layers do not tile or fuse.
func drawWalkCase(next func(n int) int) (walkCase, bool) {
	cores := []int{2, 4, 8}[next(3)]
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
	ker := 1 + 2*next(2)
	l1 := layer.NewConv("a", 6+next(12), 6+next(12), 8+next(40), 8+next(40), ker)
	f1 := tile.Factors{OH: 2 + next(5), OW: 2 + next(5), OC: 4 + next(16), IC: 4 + next(16)}
	g1, err := tile.NewGrid(l1, f1)
	if err != nil || g1.NumOps() > 160 {
		return walkCase{}, false
	}
	m := model.New(a)
	var gr *dfg.Graph
	if fused := next(3) == 0; fused {
		l2 := layer.NewConv("b", l1.OutH(), l1.OutW(), l1.OutC, 8+next(24), 1+2*next(2))
		g2, err := tile.NewGrid(l2, tile.Factors{OH: 2 + next(5), OW: 2 + next(5), OC: 4 + next(16), IC: 4 + next(16)})
		if err != nil || dfg.CheckFusable(l1, l2) != nil || g1.NumOps()+g2.NumOps() > 200 {
			return walkCase{}, false
		}
		if gr, err = dfg.BuildFused([]*tile.Grid{g1, g2}, m); err != nil {
			return walkCase{}, false
		}
	} else {
		gr = dfg.Build(g1, m)
	}
	mode := "ooo"
	switch next(6) {
	case 0:
		mode, cfg.Order = "static", seq(len(gr.Ops))
	case 1:
		mode, cfg.Hint = "hinted", seq(len(gr.Ops))
		if !gr.Fused() {
			cfg.Hint = loop.Order(gr, loop.Canonical()[next(3)])
		}
	}
	name := fmt.Sprintf("%dc/%dB/%v/%v/prune=%v/inplace=%v/w%d/c%d/%s/%v/fused=%v/%dops", cores, a.SPMBytes, cfg.Priority, cfg.MemPolicy,
		!cfg.DisablePruning, !cfg.DisableInPlace, cfg.MaxReadyWindow, cfg.MaxCandidateSets, mode, f1, gr.Fused(), len(gr.Ops))
	return walkCase{name: name, gr: gr, cfg: cfg}, true
}

// TestSetWalkMatchesOracle: over random layers, tilings, 2/4/8-core
// machines from starved to roomy, all four priorities, all three spill
// policies, pruning on and off, window and cap settings, single-layer
// and fused graphs, out of order, hinted and in a static order, the
// prefix walk forms at every step the set the per-width enumerator
// does, with the same evaluation, having evaluated and pruned as many
// candidates. The draw must have exercised what the walk adds: pruned
// candidates, sets narrower than the machine, infeasible prefixes
// (evaluations that placed nothing), capped widths, and the single-op
// fallback's stall.
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
		if c.gr.Fused() {
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
var stalledSeed = []byte{185, 60, 44, 63, 176, 197, 237, 197, 31, 96, 245, 112, 75, 86, 175, 48, 241, 7, 157, 124, 56, 91, 153, 249}

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
	f.Add([]byte{1, 20, 0, 0, 0, 0, 1, 1, 3, 3, 0, 6, 6, 16, 16, 2, 2, 8, 8, 1, 2})
	f.Add([]byte{2, 3, 0, 1, 2, 1, 1, 2, 1, 0, 11, 4, 30, 20, 1, 3, 5, 9, 1, 0, 8, 2, 1, 4, 4, 0})
	f.Add([]byte{0, 50, 1, 1, 3, 1, 0, 1, 0, 2, 1, 8, 8, 24, 8, 3, 3, 12, 4, 0, 0, 16, 1, 2, 2, 8, 8, 3})
	f.Add(bytes.Repeat([]byte{7, 1, 4}, 12))
	f.Add(stalledSeed)
	for _, seed := range twinRichSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := drawWalkCase(fuzzDraws(data)); ok {
			walkVsOracle(t, c.name, c.gr, c.cfg)
		}
	})
}
