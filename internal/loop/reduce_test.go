package loop

import (
	"fmt"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

// oracleOrder is Order as it was: two maps and a recursive closure per
// call. A Perm may be any four Dims, repeated or out of range.
func oracleOrder(gr *dfg.Graph, df Dataflow) []int {
	g := gr.Grid
	counts := map[Dim]int{OC: g.NOC, OH: g.NOH, OW: g.NOW, IC: g.NIC}
	idx := map[Dim]int{}
	order := make([]int, 0, gr.Grid.NumOps())
	var walk func(level int)
	walk = func(level int) {
		if level == 4 {
			order = append(order, gr.OpAt(idx[OH], idx[OW], idx[OC], idx[IC]))
			return
		}
		d := df.Perm[level]
		for i := 0; i < counts[d]; i++ {
			idx[d] = i
			walk(level + 1)
		}
	}
	walk(0)
	return order
}

// benchmarkGraphs calls visit with the graph of every stride-th tiling
// tile.Enumerate returns — under the quick and the default budget's
// limits on a 128 KiB four-core machine — for every layer of the four
// layer families the repository benchmark compiles.
func benchmarkGraphs(t *testing.T, stride int, visit func(name string, gr *dfg.Graph)) {
	m := model.New(arch.New("t", 4, arch.KiB(128), 32))
	tilings := 0
	for _, fam := range []struct {
		network string
		scale   int
	}{{"squeezenet", 8}, {"vgg16", 8}, {"vgg16", 4}, {"resnet50", 8}} {
		n, err := nets.ByName(fam.network)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range n.Scale(fam.scale).Layers {
			for _, lim := range []tile.EnumLimits{
				{SPMBytes: 128 << 10, Cores: 4, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6},
				{SPMBytes: 128 << 10, Cores: 4, MaxOps: 4096, MaxTilings: 24, MaxValuesPerDim: 10},
			} {
				for _, f := range tile.Enumerate(l, lim) {
					if tilings++; tilings%stride != 0 {
						continue
					}
					g, err := tile.NewGrid(l, f)
					if err != nil {
						t.Fatal(err)
					}
					visit(fmt.Sprintf("%s/%d %s %v", fam.network, fam.scale, l.Name, f), dfg.Build(g, m))
				}
			}
		}
	}
}

// TestReduceDecidesOrderEquality is the lemma the layer search skips
// dataflows on, in both directions: over every benchmark tiling and
// every pair of the 24 loop orders, two dataflows reduce to the same
// permutation exactly when they walk the grid in the same op sequence.
func TestReduceDecidesOrderEquality(t *testing.T) {
	all := All()
	graphs, distinct := 0, 0
	benchmarkGraphs(t, 1, func(name string, gr *dfg.Graph) {
		graphs++
		orders := make([][]int, len(all))
		reduced := make([][4]Dim, len(all))
		for i, df := range all {
			orders[i], reduced[i] = Order(gr, df), Reduce(gr.Grid, df.Perm)
			if !slices.Equal(Order(gr, Dataflow{Perm: reduced[i]}), orders[i]) {
				t.Fatalf("%s: %v reduces to %v, which walks another sequence", name, df.Perm, reduced[i])
			}
			if !slices.Contains(reduced[:i], reduced[i]) {
				distinct++
			}
		}
		for i := range all {
			for j := range all {
				if same, eq := reduced[i] == reduced[j], slices.Equal(orders[i], orders[j]); same != eq {
					t.Fatalf("%s: %v and %v: reductions equal %v, orders equal %v", name, all[i].Perm, all[j].Perm, same, eq)
				}
			}
		}
	})
	t.Logf("%d graphs, %d of %d (graph, dataflow) pairs are distinct sequences", graphs, distinct, graphs*len(all))
	if distinct == graphs*len(all) || distinct == graphs {
		t.Error("the draw has no grid with a one-iteration loop, or none without")
	}
}

// TestOrderMatchesOracle holds Order to the implementation it replaced,
// on every twentieth benchmark tiling, for the 24 loop orders and for
// Perms that are not permutations: a repeated loop, a loop that does
// not exist.
func TestOrderMatchesOracle(t *testing.T) {
	dfs := append(All(),
		Dataflow{Perm: [4]Dim{OC, OC, OH, OW}}, Dataflow{Perm: [4]Dim{IC, OH, IC, OW}},
		Dataflow{Perm: [4]Dim{OH, OW, OC, 7}}, Dataflow{Perm: [4]Dim{255, OH, OW, IC}})
	benchmarkGraphs(t, 20, func(name string, gr *dfg.Graph) { // the recursive walk is some 30 times slower
		for _, df := range dfs {
			if got, want := Order(gr, df), oracleOrder(gr, df); got == nil || !slices.Equal(got, want) {
				t.Fatalf("%s %v: Order differs from the recursive walk (%d ops, want %d)", name, df.Perm, len(got), len(want))
			}
		}
	})
}

var ordered []int

// BenchmarkOrder materializes all 24 loop orders of a 512-op grid, what
// a layer search under the default budget asks per tiling at the most.
func BenchmarkOrder(b *testing.B) {
	n, _ := nets.ByName("vgg16")
	l := n.Scale(4).Layers[4] // conv3_1
	g, err := tile.NewGrid(l, tile.Factors{OH: 7, OW: 7, OC: 16, IC: 16})
	if err != nil {
		b.Fatal(err)
	}
	gr := dfg.Build(g, model.New(arch.New("t", 4, arch.KiB(128), 32)))
	all := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, df := range all {
			ordered = Order(gr, df)
		}
	}
	b.ReportMetric(float64(len(gr.Ops)), "ops/order")
}
