package sched

import (
	"runtime"
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
	e := newTestEngine(b, gr, Config{Arch: a})
	for e.nDone < len(gr.Ops)/2 {
		if err := e.step(); err != nil {
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
	a := arch.New("arch4", 2, arch.KiB(512), 64)
	gr := buildGraph(b, layer.NewConv("tiny", 8, 8, 32, 24, 3), tile.Factors{OH: 4, OW: 4, OC: 12, IC: 16}, a)
	static := make([]int, len(gr.Ops))
	for i := range static {
		static[i] = i
	}
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
