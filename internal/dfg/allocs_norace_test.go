//go:build !race

package dfg

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestBuildFusedAllocs holds BuildFused of a two-layer pair to a fixed
// number of allocations, whatever the graph's size: 13 — the graph,
// its op, operand, use and size tables and its layer offsets; for the
// fused parts the cover, cross-pred and cross-succ window tables, one
// array each behind them, and the succs' count table. A cover list or
// an edge list grown per tile or per op (65 allocations on this pair)
// fails here.
func TestBuildFusedAllocs(t *testing.T) {
	g1, g2 := fusedPair(t)
	m := model.New(arch.New("t", 2, arch.KiB(256), 32))
	grids := []*tile.Grid{g1, g2}
	n := testing.AllocsPerRun(50, func() {
		if _, err := BuildFused(grids, m); err != nil {
			t.Fatal(err)
		}
	})
	if n > 13 {
		t.Errorf("BuildFused makes %v allocations, ceiling 13", n)
	}
}
