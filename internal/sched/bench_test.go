package sched

import (
	"runtime"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Micro-benchmarks of one scheduling step (run with -benchmem): the
// signature of one candidate combination, the placement of one
// candidate set, and one whole out-of-order step. Each runs on an
// engine stopped halfway through a schedule on the repository
// benchmark's two 4-core machines — tight4 keeps the scratchpad under
// pressure (placement and victim search dominate a step), roomy4 never
// spills (signatures dominate) — and, for a wide ready queue, on the
// 2-core arch4.

var benchMachines = []arch.Config{
	arch.New("tight4", 4, arch.KiB(128), 32),
	arch.New("roomy4", 4, arch.KiB(1024), 64),
}

// arch4 is the machine of BenchmarkScheduleTiny, and of the repository
// benchmark's exhaustive job, whose ready queue reaches hundreds of ops.
var arch4 = arch.New("arch4", 2, arch.KiB(512), 64)

// midRunEngine schedules half of a 256-op layer on a — out of order,
// or with hinted following the weight-stationary loop order — and
// returns the engine as it stands before the next step. With wide the
// layer is one of 448 ops that are all ready from the start (a single
// input-channel tile), so that halfway 224 wait in the ready queue.
func midRunEngine(b *testing.B, a arch.Config, wide, hinted bool) *engine {
	b.Helper()
	l, f := layer.NewConv("bench", 28, 28, 128, 128, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32}
	if wide {
		l, f = layer.NewConv("wide", 28, 28, 64, 512, 3), tile.Factors{OH: 4, OW: 7, OC: 32, IC: 64}
	}
	gr := buildGraph(b, l, f, a)
	cfg := Config{Arch: a}
	if hinted {
		cfg.Hint = loop.Order(gr, loop.Canonical()[2])
	}
	e := newTestEngine(b, gr, cfg)
	for e.nDone < len(gr.Ops)/2 {
		if err := e.step(); err != nil {
			b.Fatal(err)
		}
	}
	e.mem.UnpinAll()
	if wide && len(e.ready) < 200 {
		b.Fatalf("%d ops ready halfway, want at least 200", len(e.ready))
	}
	return e
}

var sinkSig []uint64

// BenchmarkComboSignature is the signature work per full-width
// candidate as the set walk does it: going through the width-#cores
// combinations of the window in lexicographic order, each one pops back
// to the prefix it shares with the one before and pushes the rest, one
// push deriving a signature from the prefix's. (Up to PR 18 this
// benchmark timed signing such a combination from scratch, which is now
// the test oracle's comboSignature.)
func BenchmarkComboSignature(b *testing.B) {
	for _, a := range benchMachines {
		b.Run(a.Name, func(b *testing.B) {
			e := midRunEngine(b, a, false, false)
			window := e.selectWindow()
			e.stepFacts(window, true)
			var combos [][]int
			forEachCombo(len(window), a.Cores, func(c []int) { combos = append(combos, append([]int(nil), c...)) })
			w := &e.walk
			e.beginWalk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := combos[i%len(combos)]
				shared := 0
				for shared < len(w.combo) && w.combo[shared] == c[shared] {
					shared++
				}
				for len(w.combo) > shared {
					e.pop(true)
				}
				for _, wi := range c[shared:] {
					e.push(window[wi], wi, true)
				}
				sinkSig = w.sig[w.sigAt[len(c)]:]
			}
		})
	}
}

// BenchmarkEvalSet is the placement of one full-width candidate set in
// place on the engine's scratchpad and taking it back: "whole" places
// every op of the set, one checkpoint each (a candidate sharing no
// placed prefix with the one before); "extend" places the last op on a
// prefix that is already there (the common case along the walk).
func BenchmarkEvalSet(b *testing.B) {
	for _, a := range benchMachines {
		for _, extend := range []bool{false, true} {
			name := a.Name + "/whole"
			if extend {
				name = a.Name + "/extend"
			}
			b.Run(name, func(b *testing.B) {
				e := midRunEngine(b, a, false, false)
				set := append([]int(nil), e.selectWindow()[:a.Cores]...)
				w := &e.walk
				e.beginWalk()
				w.cur.ops = append(w.cur.ops, set...)
				keep := 0
				if extend {
					keep = len(set) - 1
				}
				if !e.placeTo(keep) {
					b.Fatal("prefix does not fit")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !e.placeTo(len(set)) {
						b.Fatal("set does not fit")
					}
					for w.placed > keep {
						e.unplace()
					}
				}
			})
		}
	}
}

// BenchmarkNextSetOoO is one whole out-of-order step, on each machine
// with the window ranked by resident bytes and with it following a
// weight-stationary hint, where consecutive window ops share one operand
// and differ in private, equal-shaped ones — the windows the walk's
// interchangeable-op rule shortens most. "wide" is the step on arch4
// with 224 ops ready, of which the window keeps 16: what selecting the
// window costs, next to what weighing its sets does.
func BenchmarkNextSetOoO(b *testing.B) {
	for _, a := range append(benchMachines, arch4) {
		for _, hinted := range []bool{false, true} {
			wide := a.Name == arch4.Name
			name := a.Name
			if wide {
				name = "wide"
			}
			if hinted {
				name += "/hinted"
			}
			b.Run(name, func(b *testing.B) {
				e := midRunEngine(b, a, wide, hinted)
				e.nEval, e.nPruned = 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.releaseEval(e.nextSetOoO())
				}
				b.ReportMetric(float64(e.nEval)/float64(b.N), "evals/op")
				b.ReportMetric(float64(e.nPruned)/float64(b.N), "pruned/op")
			})
		}
	}
}

var sinkResult *Result

// BenchmarkScheduleTiny is one whole Schedule of a 16-op graph under
// the quick budget's limits on a two-core machine, out of order and in
// a static order — the repository benchmark's setup_s in miniature,
// which is a few hundred such calls: per-Schedule fixed cost, not the
// inner loop. "warm" reuses a pooled engine; "cold" runs after two
// collections have emptied the pool, as each of the benchmark's cold
// jobs does, so it also pays the engine's and the scratchpad's
// first-touch allocations.
func BenchmarkScheduleTiny(b *testing.B) {
	a := arch4
	gr := smallGraph(b, a)
	static := seq(len(gr.Ops))
	for _, c := range []struct {
		name string
		cfg  Config
		cold bool
	}{
		{"ooo/warm", Config{Arch: a, MaxReadyWindow: 12, MaxCandidateSets: 32}, false},
		{"ooo/cold", Config{Arch: a, MaxReadyWindow: 12, MaxCandidateSets: 32}, true},
		{"static/warm", Config{Arch: a, Order: static}, false},
		{"static/cold", Config{Arch: a, Order: static}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.cold {
					b.StopTimer()
					runtime.GC()
					runtime.GC()
					b.StartTimer()
				}
				r, err := Schedule(gr, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = r
			}
		})
	}
}

// BenchmarkRepair times one Repair: pressureGraph on a 4-core machine
// whose core 1 dies at mid-makespan. It re-executes the committed half
// of the nominal's sets twice (once to find where the commit ends, once
// to commit) and re-plans the rest on three cores.
func BenchmarkRepair(b *testing.B) {
	a := testArch(4)
	gr := pressureGraph(b, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: nominal.LatencyCycles / 2}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Repair(gr, nominal, plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = r
	}
}
