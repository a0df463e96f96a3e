package dfg

import (
	"testing"
	"testing/quick"
	"unsafe"

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

// TestOpSize pins an op at 64 bytes: its three tile IDs, two flags and
// its latency. Its index, block coordinates and layer are not stored;
// they are its place in Graph.Ops and its tiles' coordinates.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 64 {
		t.Errorf("dfg.Op is %d bytes, want 64", got)
	}
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
		ic := int(op.In.C)
		if op.ReadsPsum != (ic > 0) {
			t.Errorf("op %d: ReadsPsum=%v with IC=%d", i, op.ReadsPsum, ic)
		}
		if op.Final != (ic == gr.Grid.NIC-1) {
			t.Errorf("op %d: Final=%v with IC=%d", i, op.Final, ic)
		}
		if op.Cycles <= 0 {
			t.Errorf("op %d: non-positive latency %d", i, op.Cycles)
		}
		if p := gr.Pred(i); ic == 0 {
			if p != -1 {
				t.Errorf("op %d (ic=0) has pred %d", i, p)
			}
		} else {
			pre := gr.Ops[p]
			if pre.Out != op.Out || int(pre.In.C) != ic-1 {
				t.Errorf("op %d pred %d has wrong coordinates", i, p)
			}
		}
		if s := gr.Succ(i); op.Final {
			if s != -1 {
				t.Errorf("op %d (final) has succ %d", i, s)
			}
		} else if int(gr.Ops[s].In.C) != ic+1 {
			t.Errorf("op %d succ %d has ic %d", i, s, gr.Ops[s].In.C)
		}
	}
}

// TestOperandTiles: an op's block coordinates are its output tile's and
// its input tile's channel block, and its operands agree on them.
func TestOperandTiles(t *testing.T) {
	gr := smallGraph(t)
	for i, op := range gr.Ops {
		oh, ow, oc, ic := op.Out.A, op.Out.B, op.Out.C, op.In.C
		if op.In != (tile.ID{Kind: tile.In, A: oh, B: ow, C: ic}) {
			t.Errorf("op %d: wrong input tile %v", i, op.In)
		}
		if op.Wt != (tile.ID{Kind: tile.Wt, A: oc, B: ic}) {
			t.Errorf("op %d: wrong weight tile %v", i, op.Wt)
		}
		if op.Out.Kind != tile.Out {
			t.Errorf("op %d: wrong output tile %v", i, op.Out)
		}
	}
}

// InitialReady returns the indices of all ops with no dependencies
// (ic == 0), in canonical order.
func (gr *Graph) InitialReady() []int {
	var ready []int
	for i := range gr.Ops {
		if !gr.Ops[i].ReadsPsum {
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
		if gr.Ops[i].In.C != 0 {
			t.Errorf("ready op %d has ic=%d", i, gr.Ops[i].In.C)
		}
	}
}

func TestUseCounts(t *testing.T) {
	gr := smallGraph(t)
	g, uses := gr.Grid, gr.AppendUses(nil)
	// Every input tile is used once per out-channel block.
	for h := range int32(g.NOH) {
		for w := range int32(g.NOW) {
			for i := range int32(g.NIC) {
				if got := int(uses[gr.Num(tile.ID{Kind: tile.In, A: h, B: w, C: i})]); got != g.NOC {
					t.Errorf("IN(%d,%d,%d) uses = %d, want %d", h, w, i, got, g.NOC)
				}
			}
		}
	}
	// Every weight tile is used once per spatial block.
	for c := range int32(g.NOC) {
		for i := range int32(g.NIC) {
			if got := int(uses[gr.Num(tile.ID{Kind: tile.Wt, A: c, B: i})]); got != g.NOH*g.NOW {
				t.Errorf("WT(%d,%d) uses = %d, want %d", c, i, got, g.NOH*g.NOW)
			}
		}
	}
	// Every output tile is touched once per accumulation step.
	for h := range int32(g.NOH) {
		for w := range int32(g.NOW) {
			for c := range int32(g.NOC) {
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
		oh, ow, oc, ic := int(op.Out.A), int(op.Out.B), int(op.Out.C), int(op.In.C)
		if got := gr.OpAt(oh, ow, oc, ic); got != i {
			t.Errorf("OpAt(%d,%d,%d,%d) = %d, want %d", oh, ow, oc, ic, got, i)
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
	for h := range int32(g.NOH) {
		for w := range int32(g.NOW) {
			for i := range int32(g.NIC) {
				out = append(out, tile.ID{Kind: tile.In, A: h, B: w, C: i})
			}
			for c := range int32(g.NOC) {
				out = append(out, tile.ID{Kind: tile.Out, A: h, B: w, C: c})
			}
		}
	}
	for c := range int32(g.NOC) {
		for i := range int32(g.NIC) {
			out = append(out, tile.ID{Kind: tile.Wt, A: c, B: i})
		}
	}
	return out
}
