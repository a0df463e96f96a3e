package dfg

import (
	"math/rand"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// lessID is the order tile numbers must follow: (Kind, L, A, B, C).
// verify relies on it: the last layer's output tiles, which must all
// reach off-chip memory, are the graph's last numbers.
func lessID(a, b tile.ID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.L != b.L {
		return a.L < b.L
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.C < b.C
}

// randomGraph builds a graph of one to three random shape-compatible
// layers under random (often ragged) tilings.
func randomGraph(t *testing.T, rng *rand.Rand) *Graph {
	t.Helper()
	hw := 4 + rng.Intn(12)
	ch := []int{8, 16, 24, 32}
	inC := ch[rng.Intn(len(ch))]
	var grids []*tile.Grid
	for l, n := 0, 1+rng.Intn(3); l < n; l++ {
		outC := ch[rng.Intn(len(ch))]
		conv := layer.NewConv("l", hw, hw, inC, outC, 3) // 3x3 "same": shapes chain
		g, err := tile.NewGrid(conv, tile.Factors{
			OH: 1 + rng.Intn(hw), OW: 1 + rng.Intn(hw), OC: 1 + rng.Intn(outC), IC: 1 + rng.Intn(inC),
		})
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
		inC = outC
	}
	gr, err := BuildFused(grids, model.New(arch.New("t", 2, arch.KiB(256), 32)))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// TestNumIsAnOrderedBijection: over random single-layer and fused
// graphs, Num maps the graph's tiles one to one onto [0, NumTiles()),
// ascending in (Kind, L, A, B, C); Tile inverts it; every operand of
// every op and every covering tile has a number; and NumOK turns away
// what is not a tile of the graph.
func TestNumIsAnOrderedBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		gr := randomGraph(t, rng)
		want := 0
		for _, g := range gr.Grids() {
			want += g.NumTiles(tile.In) + g.NumTiles(tile.Wt) + g.NumTiles(tile.Out)
		}
		if gr.NumTiles() != want {
			t.Fatalf("trial %d: NumTiles %d, grids hold %d", trial, gr.NumTiles(), want)
		}
		var prev tile.ID
		for n := 0; n < gr.NumTiles(); n++ {
			id := gr.Tile(n)
			if got, ok := gr.NumOK(id); !ok || got != n || gr.Num(id) != n {
				t.Fatalf("trial %d: Tile(%d) = %v, numbered %d (ok %v) / %d", trial, n, id, got, ok, gr.Num(id))
			}
			if n > 0 && !lessID(prev, id) {
				t.Fatalf("trial %d: numbers %d, %d are %v, %v: not ascending", trial, n-1, n, prev, id)
			}
			if gr.Size(id) <= 0 {
				t.Fatalf("trial %d: tile %d = %v has size %d", trial, n, id, gr.Size(id))
			}
			prev = id
		}
		seen := make([]bool, gr.NumTiles())
		for i, op := range gr.Ops {
			for _, id := range append([]tile.ID{op.In, op.Wt, op.Out}, gr.Covering(op.In)...) {
				n, ok := gr.NumOK(id)
				if !ok || gr.Tile(n) != id {
					t.Fatalf("trial %d: operand %v of op %d: number %d ok=%v names %v", trial, id, i, n, ok, gr.Tile(n))
				}
				seen[n] = true
			}
		}
		for n, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: tile %d = %v is no op's operand", trial, n, gr.Tile(n))
			}
		}

		g, last := gr.Grids()[gr.LastLayer()], int16(gr.LastLayer())
		for _, bad := range []tile.ID{
			{Kind: tile.In, A: int32(g.NOH), L: last},
			{Kind: tile.In, B: int32(g.NOW), L: last},
			{Kind: tile.In, C: int32(g.NIC), L: last},
			{Kind: tile.Wt, A: int32(g.NOC), L: last},
			{Kind: tile.Wt, C: 1, L: last},
			{Kind: tile.Out, A: -1, L: last},
			{Kind: tile.Out, C: int32(g.NOC), L: last},
			{Kind: tile.Out, L: last + 1},
			{Kind: tile.Out, L: -1},
			{Kind: tile.Kind(tile.NumKinds)},
		} {
			if n, ok := gr.NumOK(bad); ok {
				t.Fatalf("trial %d: NumOK(%v) = %d, want not a tile (grid %v)", trial, bad, n, g)
			}
			if gr.Covering(bad) != nil {
				t.Fatalf("trial %d: %v is not a tile but has a cover", trial, bad)
			}
		}
	}
}

// TestTablesMatchNames: the tables by number that Build records are
// the names they stand for — for every op, Operands is Num of its In,
// Wt and Out; for every tile, SizeOf its number is its Size — on the
// graphs of BenchmarkBuild and BenchmarkBuildFused and on a three-layer
// fused graph.
func TestTablesMatchNames(t *testing.T) {
	m := model.New(arch.New("t", 4, arch.KiB(128), 32))
	grid := func(l layer.Conv, f tile.Factors) *tile.Grid {
		g, err := tile.NewGrid(l, f)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string][]*tile.Grid{
		"16ops":  {grid(layer.NewConv("tiny", 8, 8, 32, 24, 3), tile.Factors{OH: 4, OW: 4, OC: 12, IC: 16})},
		"256ops": {grid(layer.NewConv("mid", 28, 28, 128, 128, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32})},
		"fused2": {
			grid(layer.NewConv("a", 28, 28, 64, 64, 3), tile.Factors{OH: 7, OW: 7, OC: 32, IC: 32}),
			grid(layer.NewConv("b", 28, 28, 64, 32, 3), tile.Factors{OH: 7, OW: 14, OC: 16, IC: 32}),
		},
		"fused3": {
			grid(layer.NewConv("a", 14, 14, 16, 24, 3), tile.Factors{OH: 5, OW: 4, OC: 8, IC: 16}),
			grid(layer.NewConv("b", 14, 14, 24, 32, 3), tile.Factors{OH: 7, OW: 3, OC: 16, IC: 8}),
			grid(layer.NewConv("c", 14, 14, 32, 8, 1), tile.Factors{OH: 4, OW: 14, OC: 8, IC: 24}),
		},
	}
	for name, grids := range cases {
		gr, err := BuildFused(grids, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(gr.Grids()) != len(grids) {
			t.Fatalf("%s: %d layers, want %d", name, len(gr.Grids()), len(grids))
		}
		for i, op := range gr.Ops {
			want := [3]int32{int32(gr.Num(op.In)), int32(gr.Num(op.Wt)), int32(gr.Num(op.Out))}
			if got := gr.Operands(i); got != want {
				t.Fatalf("%s: op %v has operands %v, its tiles number %v", name, op, got, want)
			}
		}
		for n := range gr.NumTiles() {
			if id := gr.Tile(n); gr.SizeOf(int32(gr.Num(id))) != gr.Size(id) {
				t.Fatalf("%s: tile %v has SizeOf %d, Size %d", name, id, gr.SizeOf(int32(gr.Num(id))), gr.Size(id))
			}
		}
	}
}

// TestUsesViewsAgree: the tile-keyed views are the table by number.
func TestUsesViewsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		gr := randomGraph(t, rng)
		byNum := gr.AppendUses(nil)
		byID := gr.UsesInto(map[tile.ID]int{{Kind: tile.Out, A: 99}: 1}) // cleared first
		if len(byID) != len(byNum) {
			t.Fatalf("trial %d: %d tiles by ID, %d by number", trial, len(byID), len(byNum))
		}
		for n, u := range byNum {
			if id := gr.Tile(n); byID[id] != int(u) || gr.Num(id) != n || u <= 0 {
				t.Fatalf("trial %d: %v: %d by number %d, %d by ID, number %d", trial, id, u, n, byID[id], gr.Num(id))
			}
		}
	}
}
