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
// sched.Repair used to break ties between dirty tiles with it; it now
// compares numbers.
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
		for _, op := range gr.Ops {
			for _, id := range append([]tile.ID{op.In, op.Wt, op.Out}, gr.Covering(op.In)...) {
				n, ok := gr.NumOK(id)
				if !ok || gr.Tile(n) != id {
					t.Fatalf("trial %d: operand %v of op %d: number %d ok=%v names %v", trial, id, op.ID, n, ok, gr.Tile(n))
				}
				seen[n] = true
			}
		}
		for n, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: tile %d = %v is no op's operand", trial, n, gr.Tile(n))
			}
		}

		g := gr.Grids()[gr.LastLayer()]
		for _, bad := range []tile.ID{
			{Kind: tile.In, A: g.NOH, L: gr.LastLayer()},
			{Kind: tile.In, B: g.NOW, L: gr.LastLayer()},
			{Kind: tile.In, C: g.NIC, L: gr.LastLayer()},
			{Kind: tile.Wt, A: g.NOC, L: gr.LastLayer()},
			{Kind: tile.Wt, C: 1, L: gr.LastLayer()},
			{Kind: tile.Out, A: -1, L: gr.LastLayer()},
			{Kind: tile.Out, C: g.NOC, L: gr.LastLayer()},
			{Kind: tile.Out, L: gr.NumLayers()},
			{Kind: tile.Out, L: -1},
			{Kind: tile.Kind(tile.NumKinds)},
		} {
			if n, ok := gr.NumOK(bad); ok {
				t.Fatalf("trial %d: NumOK(%v) = %d, want not a tile (grid %v)", trial, bad, n, g)
			}
			if gr.TotalUses(bad) != 0 || gr.Covering(bad) != nil {
				t.Fatalf("trial %d: %v is not a tile but has uses or a cover", trial, bad)
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
			if id := gr.Tile(n); byID[id] != int(u) || gr.TotalUses(id) != int(u) || u <= 0 {
				t.Fatalf("trial %d: %v: %d by number, %d by ID, TotalUses %d", trial, id, u, byID[id], gr.TotalUses(id))
			}
		}
	}
}
