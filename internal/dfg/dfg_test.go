package dfg

import (
	"testing"
	"testing/quick"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

func buildTestGraph(t *testing.T, l layer.Conv, f tile.Factors) *Graph {
	t.Helper()
	g, err := tile.NewGrid(l, f)
	if err != nil {
		t.Fatal(err)
	}
	return Build(g, model.New(arch.New("t", 2, arch.KiB(256), 32)))
}

func smallGraph(t *testing.T) *Graph {
	return buildTestGraph(t, layer.NewConv("s", 8, 8, 32, 24, 3),
		tile.Factors{OH: 4, OW: 8, OC: 12, IC: 16})
}

func TestBuildCounts(t *testing.T) {
	gr := smallGraph(t)
	g := gr.Grid
	// 8/4=2, 8/8=1, 24/12=2, 32/16=2 -> 8 ops.
	if len(gr.Ops) != 8 {
		t.Fatalf("built %d ops, want 8", len(gr.Ops))
	}
	if g.NOH != 2 || g.NOW != 1 || g.NOC != 2 || g.NIC != 2 {
		t.Fatalf("grid blocks %d,%d,%d,%d", g.NOH, g.NOW, g.NOC, g.NIC)
	}
}

func TestOpFieldsAndChains(t *testing.T) {
	gr := smallGraph(t)
	for i, op := range gr.Ops {
		if op.ID != i {
			t.Errorf("op %d has ID %d", i, op.ID)
		}
		if op.ReadsPsum != (op.IC > 0) {
			t.Errorf("op %d: ReadsPsum=%v with IC=%d", i, op.ReadsPsum, op.IC)
		}
		if op.Final != (op.IC == gr.Grid.NIC-1) {
			t.Errorf("op %d: Final=%v with IC=%d", i, op.Final, op.IC)
		}
		if op.Cycles <= 0 {
			t.Errorf("op %d: non-positive latency %d", i, op.Cycles)
		}
		if p := gr.Pred(i); op.IC == 0 {
			if p != -1 {
				t.Errorf("op %d (ic=0) has pred %d", i, p)
			}
		} else {
			pre := gr.Ops[p]
			if pre.OH != op.OH || pre.OW != op.OW || pre.OC != op.OC || pre.IC != op.IC-1 {
				t.Errorf("op %d pred %d has wrong coordinates", i, p)
			}
		}
		if s := gr.Succ(i); op.Final {
			if s != -1 {
				t.Errorf("op %d (final) has succ %d", i, s)
			}
		} else if gr.Ops[s].IC != op.IC+1 {
			t.Errorf("op %d succ %d has ic %d", i, s, gr.Ops[s].IC)
		}
	}
}

func TestOperandTiles(t *testing.T) {
	gr := smallGraph(t)
	for i, op := range gr.Ops {
		if op.In != (tile.ID{Kind: tile.In, A: op.OH, B: op.OW, C: op.IC}) {
			t.Errorf("op %d: wrong input tile %v", i, op.In)
		}
		if op.Wt != (tile.ID{Kind: tile.Wt, A: op.OC, B: op.IC}) {
			t.Errorf("op %d: wrong weight tile %v", i, op.Wt)
		}
		if op.Out != (tile.ID{Kind: tile.Out, A: op.OH, B: op.OW, C: op.OC}) {
			t.Errorf("op %d: wrong output tile %v", i, op.Out)
		}
	}
}

// InitialReady returns the indices of all ops with no dependencies
// (ic == 0), in canonical order.
func (gr *Graph) InitialReady() []int {
	var ready []int
	for i := range gr.Ops {
		if gr.Ops[i].IC == 0 {
			ready = append(ready, i)
		}
	}
	return ready
}

func TestInitialReady(t *testing.T) {
	gr := smallGraph(t)
	ready := gr.InitialReady()
	want := gr.Grid.NOH * gr.Grid.NOW * gr.Grid.NOC
	if len(ready) != want {
		t.Fatalf("%d initially ready, want %d", len(ready), want)
	}
	for _, i := range ready {
		if gr.Ops[i].IC != 0 {
			t.Errorf("ready op %d has ic=%d", i, gr.Ops[i].IC)
		}
	}
}

func TestUseCounts(t *testing.T) {
	gr := smallGraph(t)
	g, uses := gr.Grid, gr.AppendUses(nil)
	// Every input tile is used once per out-channel block.
	for h := 0; h < g.NOH; h++ {
		for w := 0; w < g.NOW; w++ {
			for i := 0; i < g.NIC; i++ {
				if got := int(uses[gr.Num(tile.ID{Kind: tile.In, A: h, B: w, C: i})]); got != g.NOC {
					t.Errorf("IN(%d,%d,%d) uses = %d, want %d", h, w, i, got, g.NOC)
				}
			}
		}
	}
	// Every weight tile is used once per spatial block.
	for c := 0; c < g.NOC; c++ {
		for i := 0; i < g.NIC; i++ {
			if got := int(uses[gr.Num(tile.ID{Kind: tile.Wt, A: c, B: i})]); got != g.NOH*g.NOW {
				t.Errorf("WT(%d,%d) uses = %d, want %d", c, i, got, g.NOH*g.NOW)
			}
		}
	}
	// Every output tile is touched once per accumulation step.
	for h := 0; h < g.NOH; h++ {
		for w := 0; w < g.NOW; w++ {
			for c := 0; c < g.NOC; c++ {
				if got := int(uses[gr.Num(tile.ID{Kind: tile.Out, A: h, B: w, C: c})]); got != g.NIC {
					t.Errorf("OT(%d,%d,%d) uses = %d, want %d", h, w, c, got, g.NIC)
				}
			}
		}
	}
	// A tile from another grid has no number, so no uses.
	if n, ok := gr.NumOK(tile.ID{Kind: tile.In, A: 99}); ok {
		t.Errorf("foreign tile has number %d", n)
	}
}

func TestUsesReturnsCopy(t *testing.T) {
	gr := smallGraph(t)
	u := gr.Uses()
	id := gr.Ops[0].In
	u[id] = -999
	if gr.AppendUses(nil)[gr.Num(id)] == -999 {
		t.Error("Uses() exposed internal map")
	}
}

func TestOpAtRoundTrip(t *testing.T) {
	gr := smallGraph(t)
	for i, op := range gr.Ops {
		if got := gr.OpAt(op.OH, op.OW, op.OC, op.IC); got != i {
			t.Errorf("OpAt(%d,%d,%d,%d) = %d, want %d", op.OH, op.OW, op.OC, op.IC, got, i)
		}
	}
}

func TestOpString(t *testing.T) {
	gr := smallGraph(t)
	s0 := gr.Ops[0].String()
	if s0 == "" || gr.Ops[0].ReadsPsum {
		t.Fatalf("unexpected first op: %q", s0)
	}
	s1 := gr.Ops[1].String()
	if s1 == s0 {
		t.Error("distinct ops render identically")
	}
}

// TestGraphInvariants: for random small layers and tilings, sum of
// per-tile uses equals 3x the op count (each op touches exactly three
// tiles), and chains partition the ops.
func TestGraphInvariants(t *testing.T) {
	check := func(h8, c8, oc8, fh8, fc8, fi8 uint8) bool {
		h := int(h8%12) + 3
		c := int(c8%32) + 1
		oc := int(oc8%32) + 1
		l := layer.NewConv("q", h, h, c, oc, 3)
		f := tile.Factors{
			OH: int(fh8%4) + 1, OW: int(fh8%3) + 1,
			OC: int(fc8)%oc + 1, IC: int(fi8)%c + 1,
		}
		g, err := tile.NewGrid(l, f)
		if err != nil {
			return false
		}
		gr := Build(g, model.New(arch.New("t", 2, arch.KiB(256), 32)))
		var totalUses int
		uses := gr.AppendUses(nil)
		for _, id := range allTiles(g) {
			totalUses += int(uses[gr.Num(id)])
		}
		if totalUses != 3*len(gr.Ops) {
			return false
		}
		// Following Succ from every initially ready op visits every op
		// exactly once.
		visited := make([]bool, len(gr.Ops))
		n := 0
		for _, start := range gr.InitialReady() {
			for i := start; i != -1; i = gr.Succ(i) {
				if visited[i] {
					return false
				}
				visited[i] = true
				n++
			}
		}
		return n == len(gr.Ops)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func allTiles(g *tile.Grid) []tile.ID {
	var out []tile.ID
	for h := 0; h < g.NOH; h++ {
		for w := 0; w < g.NOW; w++ {
			for i := 0; i < g.NIC; i++ {
				out = append(out, tile.ID{Kind: tile.In, A: h, B: w, C: i})
			}
			for c := 0; c < g.NOC; c++ {
				out = append(out, tile.ID{Kind: tile.Out, A: h, B: w, C: c})
			}
		}
	}
	for c := 0; c < g.NOC; c++ {
		for i := 0; i < g.NIC; i++ {
			out = append(out, tile.ID{Kind: tile.Wt, A: c, B: i})
		}
	}
	return out
}
