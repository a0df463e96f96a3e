package dfg

import (
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

func fusedPair(t *testing.T) (*tile.Grid, *tile.Grid) {
	t.Helper()
	// 8x8x16 -> 8x8x16 -> 8x8x8, both 3x3 stride 1 "same": shapes chain.
	l1 := layer.NewConv("a", 8, 8, 16, 16, 3)
	l2 := layer.NewConv("b", 8, 8, 16, 8, 3)
	g1, err := tile.NewGrid(l1, tile.Factors{OH: 4, OW: 4, OC: 8, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tile.NewGrid(l2, tile.Factors{OH: 4, OW: 4, OC: 8, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func buildFusedPair(t *testing.T) *Graph {
	t.Helper()
	g1, g2 := fusedPair(t)
	gr, err := BuildFused([]*tile.Grid{g1, g2}, model.New(arch.New("t", 2, arch.KiB(256), 32)))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestCheckFusable(t *testing.T) {
	l1 := layer.NewConv("a", 8, 8, 16, 16, 3)
	if err := CheckFusable(l1, layer.NewConv("b", 8, 8, 16, 8, 3)); err != nil {
		t.Errorf("matched shapes rejected: %v", err)
	}
	if err := CheckFusable(l1, layer.NewConv("b", 8, 8, 32, 8, 3)); err == nil {
		t.Error("channel mismatch accepted")
	}
	if err := CheckFusable(l1, layer.NewConv("b", 4, 4, 16, 8, 3)); err == nil {
		t.Error("spatial mismatch accepted")
	}
	b := layer.NewConv("b", 8, 8, 16, 8, 3)
	b.ElemBytes = 1
	if err := CheckFusable(l1, b); err == nil {
		t.Error("element-size mismatch accepted")
	}
}

func TestBuildFusedSingleGridIsBuild(t *testing.T) {
	g1, _ := fusedPair(t)
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	fused, err := BuildFused([]*tile.Grid{g1}, m)
	if err != nil {
		t.Fatal(err)
	}
	plain := Build(g1, m)
	if fused.LastLayer() > 0 {
		t.Error("single-grid graph reports Fused")
	}
	if len(fused.Ops) != len(plain.Ops) {
		t.Fatalf("%d ops vs %d", len(fused.Ops), len(plain.Ops))
	}
	for i := range plain.Ops {
		if fused.Ops[i] != plain.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, fused.Ops[i], plain.Ops[i])
		}
	}
}

func TestBuildFusedLayout(t *testing.T) {
	gr := buildFusedPair(t)
	g1, g2 := gr.Grids()[0], gr.Grids()[1]
	if len(gr.Grids()) != 2 || gr.LastLayer() != 1 {
		t.Fatalf("layers=%d LastLayer=%d", len(gr.Grids()), gr.LastLayer())
	}
	if want := g1.NumOps() + g2.NumOps(); len(gr.Ops) != want {
		t.Fatalf("%d ops, want %d", len(gr.Ops), want)
	}
	for i, op := range gr.Ops {
		wantLayer := 0
		if i >= g1.NumOps() {
			wantLayer = 1
		}
		if op.Layer != wantLayer {
			t.Fatalf("op %d: layer %d, want %d", i, op.Layer, wantLayer)
		}
		if op.In.L != op.Layer || op.Wt.L != op.Layer || op.Out.L != op.Layer {
			t.Fatalf("op %d: tile layers %d/%d/%d for op layer %d",
				i, op.In.L, op.Wt.L, op.Out.L, op.Layer)
		}
		// The chain rule survives fusion: pred is i-1 exactly when IC>0.
		p := gr.Pred(i)
		if op.IC > 0 && p != i-1 || op.IC == 0 && p != -1 {
			t.Fatalf("op %d (ic=%d): pred %d", i, op.IC, p)
		}
	}
}

func TestBuildFusedCovering(t *testing.T) {
	gr := buildFusedPair(t)
	g1, g2 := gr.Grids()[0], gr.Grids()[1]
	// Consumer rows 0..3 with a 3x3 same conv read producer rows 0..4,
	// which spans both producer row blocks (of 4 rows each); same for
	// columns. The consumer input channel block is 8 of the producer's
	// 16 output channels, i.e. exactly one producer OC block.
	in := tile.ID{Kind: tile.In, A: 0, B: 0, C: 0, L: 1}
	ots := gr.Covering(in)
	if len(ots) != 4 {
		t.Fatalf("covering of %v: %v, want 4 tiles", in, ots)
	}
	seen := map[tile.ID]bool{}
	for _, ot := range ots {
		if ot.Kind != tile.Out || ot.L != 0 {
			t.Fatalf("covering tile %v is not a layer-0 output", ot)
		}
		seen[ot] = true
	}
	for _, want := range []tile.ID{
		{Kind: tile.Out, A: 0, B: 0, C: 0, L: 0},
		{Kind: tile.Out, A: 0, B: 1, C: 0, L: 0},
		{Kind: tile.Out, A: 1, B: 0, C: 0, L: 0},
		{Kind: tile.Out, A: 1, B: 1, C: 0, L: 0},
	} {
		if !seen[want] {
			t.Errorf("covering of %v misses %v", in, want)
		}
	}
	// Every consumer input is covered (no halo falls entirely in padding
	// for a same conv), and uses bookkeeping matches: an OT is used NIC
	// times by its own chain plus once per covered consumer input.
	covered := map[tile.ID]int{}
	for oh := 0; oh < g2.NOH; oh++ {
		for ow := 0; ow < g2.NOW; ow++ {
			for ic := 0; ic < g2.NIC; ic++ {
				id := tile.ID{Kind: tile.In, A: oh, B: ow, C: ic, L: 1}
				c := gr.Covering(id)
				if len(c) == 0 {
					t.Fatalf("consumer input %v has no covering tiles", id)
				}
				for _, ot := range c {
					covered[ot]++
				}
			}
		}
	}
	uses := gr.AppendUses(nil)
	for ot, n := range covered {
		if got, want := int(uses[gr.Num(ot)]), g1.NIC+n; got != want {
			t.Errorf("uses of %v: %d, want %d (chain %d + covered %d)",
				ot, got, want, g1.NIC, n)
		}
	}
}

func TestBuildFusedCrossEdges(t *testing.T) {
	gr := buildFusedPair(t)
	pending := gr.PendingInto(nil)
	for i, op := range gr.Ops {
		preds := gr.CrossPreds(i)
		want := 0
		if op.IC > 0 {
			want = 1
		}
		if pending[i] != want+len(preds) {
			t.Fatalf("op %d: pending %d, want chain %d + cross %d",
				i, pending[i], want, len(preds))
		}
		if op.Layer == 0 && len(preds) > 0 {
			t.Fatalf("layer-0 op %d has cross preds %v", i, preds)
		}
		for _, p := range preds {
			pre := gr.Ops[p]
			if pre.Layer != op.Layer-1 || !pre.Final {
				t.Fatalf("op %d cross pred %d is layer %d final=%v", i, p, pre.Layer, pre.Final)
			}
			found := false
			for _, s := range gr.CrossSuccs(p) {
				if s == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("op %d not in CrossSuccs(%d)", i, p)
			}
		}
	}
	// FinalOp inverts: the final op of each covering tile writes it.
	for i, op := range gr.Ops {
		if !op.Final {
			continue
		}
		if f := gr.FinalOp(op.Out); f != i {
			t.Fatalf("FinalOp(%v) = %d, want %d", op.Out, f, i)
		}
	}
}

func TestBuildFusedRejectsMismatch(t *testing.T) {
	g1, _ := fusedPair(t)
	bad, err := tile.NewGrid(layer.NewConv("c", 4, 4, 16, 8, 3), tile.Factors{OH: 4, OW: 4, OC: 8, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	if _, err := BuildFused([]*tile.Grid{g1, bad}, m); err == nil {
		t.Error("mismatched boundary accepted")
	}
	if _, err := BuildFused(nil, m); err == nil {
		t.Error("empty grid list accepted")
	}
}

// TestFloorCountsWhatNoScheduleAvoids: a graph's Floor is every op's
// cycles, every tile that exists only off-chip before the run (layer 0's
// inputs, every layer's weights) loaded once, and the last layer's
// outputs written once — a fused consumer's inputs and a fused
// producer's outputs are not in it.
func TestFloorCountsWhatNoScheduleAvoids(t *testing.T) {
	g1, g2 := fusedPair(t)
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	loads := func(g *tile.Grid, kinds ...tile.Kind) (bytes, dma int64) {
		for _, k := range kinds {
			for i := 0; i < g.NumTiles(k); i++ {
				bytes += g.Size(g.TileAt(k, i))
				dma += m.TransferCycles(g.Size(g.TileAt(k, i)))
			}
		}
		return
	}
	opCycles := func(gr *Graph) (sum int64) {
		for _, op := range gr.Ops {
			sum += op.Cycles
		}
		return
	}

	single := Build(g1, m)
	loadBytes, loadCycles := loads(g1, tile.In, tile.Wt)
	if got, want := single.Floor(), (Floor{opCycles(single), loadBytes, loadCycles, g1.TotalTileBytes(tile.Out)}); got != want {
		t.Errorf("single-layer floor %+v, want %+v", got, want)
	}

	fused := buildFusedPair(t)
	wtBytes, wtCycles := loads(g2, tile.Wt)
	if got, want := fused.Floor(), (Floor{opCycles(fused), loadBytes + wtBytes, loadCycles + wtCycles, g2.TotalTileBytes(tile.Out)}); got != want {
		t.Errorf("fused floor %+v, want %+v", got, want)
	}
}

// sameGraph fails t unless got, built into recycled storage, reads as
// want, a fresh build, through every accessor: ops, tile numbers, the
// tables, the floor and the fused parts, nil where want's are nil.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.Ops, want.Ops) || got.NumTiles() != want.NumTiles() || got.Floor() != want.Floor() ||
		!slices.Equal(got.Grids(), want.Grids()) || got.Grid != want.Grid ||
		!slices.Equal(got.AppendUses(nil), want.AppendUses(nil)) || !slices.Equal(got.PendingInto(nil), want.PendingInto(nil)) {
		t.Fatalf("%s: ops, tiles, floor, grids, uses or pending differ from a fresh build", name)
	}
	for n := range want.NumTiles() {
		id := want.Tile(n)
		if got.Tile(n) != id || got.SizeOf(int32(n)) != want.SizeOf(int32(n)) {
			t.Fatalf("%s: tile %d is %v of %d bytes, fresh %v of %d", name, n, got.Tile(n), got.SizeOf(int32(n)), id, want.SizeOf(int32(n)))
		}
		if a, b := got.Covering(id), want.Covering(id); !slices.Equal(a, b) || (a == nil) != (b == nil) {
			t.Fatalf("%s: %v is covered by %v, fresh %v", name, id, a, b)
		}
	}
	for i := range want.Ops {
		if got.Operands(i) != want.Operands(i) {
			t.Fatalf("%s: op %d operands %v, fresh %v", name, i, got.Operands(i), want.Operands(i))
		}
		for _, e := range [][2][]int{{got.CrossPreds(i), want.CrossPreds(i)}, {got.CrossSuccs(i), want.CrossSuccs(i)}} {
			if !slices.Equal(e[0], e[1]) || (e[0] == nil) != (e[1] == nil) {
				t.Fatalf("%s: op %d cross edges %v, fresh %v", name, i, e[0], e[1])
			}
		}
	}
}

// TestBuildIntoRecycledStorage builds into storage another graph used,
// as a pool hands it out: a smaller fused pair into a larger fused
// graph's, a fused pair into a single-layer graph's, and one layer into
// a fused graph's. Each reads as a fresh build, and the single-layer
// graph has no fused parts left: Covering, CrossPreds and CrossSuccs
// answer nil.
func TestBuildIntoRecycledStorage(t *testing.T) {
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	g1, g2 := fusedPair(t)
	pair := []*tile.Grid{g1, g2}
	fine1, err := tile.NewGrid(g1.Layer, tile.Factors{OH: 2, OW: 2, OC: 4, IC: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine2, err := tile.NewGrid(g2.Layer, tile.Factors{OH: 2, OW: 2, OC: 2, IC: 4})
	if err != nil {
		t.Fatal(err)
	}
	fused := func(dst *Graph, grids []*tile.Grid) *Graph {
		t.Helper()
		gr, err := BuildFusedInto(dst, grids, m)
		if err != nil {
			t.Fatal(err)
		}
		return gr
	}
	want := fused(nil, pair)

	large := fused(nil, []*tile.Grid{fine1, fine2})
	if len(large.Ops) <= len(want.Ops) {
		t.Fatalf("the larger pair has %d ops, the smaller %d", len(large.Ops), len(want.Ops))
	}
	sameGraph(t, "fused pair into a larger fused graph", fused(large, pair), want)
	sameGraph(t, "fused pair into a single-layer graph", fused(Build(fine1, m), pair), want)

	single := BuildInto(fused(nil, []*tile.Grid{fine1, fine2}), g1, m)
	sameGraph(t, "one layer into a fused graph", single, Build(g1, m))
	if single.LastLayer() > 0 {
		t.Error("one layer built into a fused graph reports Fused")
	}
	for n := range single.NumTiles() {
		if id := single.Tile(n); single.Covering(id) != nil {
			t.Fatalf("one layer built into a fused graph: %v is covered by %v", id, single.Covering(id))
		}
	}
	for i := range single.Ops {
		if single.CrossPreds(i) != nil || single.CrossSuccs(i) != nil {
			t.Fatalf("one layer built into a fused graph: op %d has cross edges %v / %v", i, single.CrossPreds(i), single.CrossSuccs(i))
		}
	}
}
