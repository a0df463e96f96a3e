//go:build !race

package dfg

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestBuildFusedAllocs holds BuildFused of a two-layer pair to a fixed
// number of allocations, whatever the graph's size: 11 — the graph,
// its op, operand, use and size tables and its layer offsets; for the
// fused parts the cover, cross-pred and cross-succ window tables, the
// array behind the cover lists and the one behind the edge lists and
// the succs' count table. A cover list or an edge list grown per tile
// or per op (65 allocations on this pair) fails here. Built into the
// storage of a graph as large, it makes none.
func TestBuildFusedAllocs(t *testing.T) {
	g1, g2 := fusedPair(t)
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	grids := []*tile.Grid{g1, g2}
	n := testing.AllocsPerRun(50, func() {
		if _, err := BuildFused(grids, m); err != nil {
			t.Fatal(err)
		}
	})
	if n > 11 {
		t.Errorf("BuildFused makes %v allocations, ceiling 11", n)
	}
	dst := buildFusedPair(t)
	n = testing.AllocsPerRun(50, func() {
		if _, err := BuildFusedInto(dst, grids, m); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Errorf("BuildFusedInto recycled storage with %v allocations, ceiling 0", n)
	}
}
