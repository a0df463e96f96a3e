package dfg

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Graph construction (run with -benchmem). The search builds one graph
// per tiling and schedules it a handful of times, so on small layers —
// the repository benchmark's setup_s is a few hundred of them — Build
// is a visible share of a compile: what it allocates per graph counts
// as much as what it computes.

var sinkGraph *Graph

func benchGrid(b *testing.B, l layer.Conv, f tile.Factors) *tile.Grid {
	b.Helper()
	g, err := tile.NewGrid(l, f)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBuild(b *testing.B) {
	m := model.New(arch.New("t", 4, arch.KiB(128), 32))
	for _, c := range []struct {
		name string
		g    *tile.Grid
	}{
		{"16ops", benchGrid(b, layer.NewConv("tiny", 8, 8, 32, 24, 3), tile.Factors{OH: 4, OW: 4, OC: 12, IC: 16})},
		{"256ops", benchGrid(b, layer.NewConv("mid", 28, 28, 128, 128, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGraph = Build(c.g, m)
			}
		})
	}
}

func BenchmarkBuildFused(b *testing.B) {
	m := model.New(arch.New("t", 4, arch.KiB(128), 32))
	grids := []*tile.Grid{
		benchGrid(b, layer.NewConv("a", 28, 28, 64, 64, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32}),
		benchGrid(b, layer.NewConv("b", 28, 28, 64, 32, 3), tile.Factors{OH: 7, OW: 14, OC: 16, IC: 32}),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gr, err := BuildFused(grids, m)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = gr
	}
}
