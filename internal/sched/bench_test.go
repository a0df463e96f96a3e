package sched

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Micro-benchmarks of one scheduling step (run with -benchmem): the
// signature of one candidate combination, the in-place evaluation of
// one candidate set, and one whole out-of-order step. Each runs on an
// engine stopped halfway through a schedule on the repository
// benchmark's two 4-core machines — tight4 keeps the scratchpad under
// pressure (placement and victim search dominate a step), roomy4 never
// spills (signatures dominate).

var benchMachines = []arch.Config{
	arch.New("tight4", 4, arch.KiB(128), 32),
	arch.New("roomy4", 4, arch.KiB(1024), 64),
}

// midRunEngine schedules half of a 256-op layer on a and returns the
// engine as it stands before the next step.
func midRunEngine(b *testing.B, a arch.Config) *engine {
	b.Helper()
	gr := buildGraph(b, layer.NewConv("bench", 28, 28, 128, 128, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32}, a)
	e := &engine{}
	e.reset(gr, Config{Arch: a}.withDefaults())
	for i := range e.rank {
		e.rank[i] = i
	}
	for e.nDone < len(gr.Ops)/2 {
		e.mem.UnpinAll()
		ev := e.nextSetOoO()
		if ev == nil {
			b.Fatal("no feasible set")
		}
		if err := e.apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	e.mem.UnpinAll()
	return e
}

var sinkSig []uint64

func BenchmarkComboSignature(b *testing.B) {
	for _, a := range benchMachines {
		b.Run(a.Name, func(b *testing.B) {
			e := midRunEngine(b, a)
			window := e.selectWindow()
			e.stepFacts(window, true)
			var combos [][]int
			forEachCombo(len(window), a.Cores, func(c []int) { combos = append(combos, append([]int(nil), c...)) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSig = e.comboSignature(combos[i%len(combos)])
			}
		})
	}
}

func BenchmarkEvalSet(b *testing.B) {
	for _, a := range benchMachines {
		b.Run(a.Name, func(b *testing.B) {
			e := midRunEngine(b, a)
			set := append([]int(nil), e.selectWindow()[:a.Cores]...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.releaseEval(e.evalSet(set))
			}
		})
	}
}

func BenchmarkNextSetOoO(b *testing.B) {
	for _, a := range benchMachines {
		b.Run(a.Name, func(b *testing.B) {
			e := midRunEngine(b, a)
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
