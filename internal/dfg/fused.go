package dfg

// Inter-layer fusion: BuildFused stitches the tile graphs of
// consecutive layers into one DFG. The stitching rule mirrors the
// dataflow of the real machine: a consumer-layer input tile IN@l(h,w,i)
// reads the producer layer's output elements inside its halo, so it
// depends on exactly the producer output tiles OT@l-1 whose output
// blocks intersect that halo. The scheduler may then assemble the
// consumer tile from scratchpad-resident producer tiles (an on-chip
// gather, no off-chip traffic) or fall back to a DRAM round-trip when
// capacity forces the producers out early.

import (
	"fmt"
	"math"
	"slices"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// CheckFusable reports whether next can consume prev's output directly:
// the tensor shapes must line up exactly (no pooling, reshaping or
// format change between them).
func CheckFusable(prev, next layer.Conv) error {
	if next.InH != prev.OutH() || next.InW != prev.OutW() || next.InC != prev.OutC {
		return fmt.Errorf("dfg: %s output %dx%dx%d does not feed %s input %dx%dx%d",
			prev.Name, prev.OutH(), prev.OutW(), prev.OutC,
			next.Name, next.InH, next.InW, next.InC)
	}
	if next.ElemBytes != prev.ElemBytes {
		return fmt.Errorf("dfg: %s produces %d-byte elements, %s consumes %d-byte",
			prev.Name, prev.ElemBytes, next.Name, next.ElemBytes)
	}
	return nil
}

// BuildFused constructs one DFG spanning all of grids, in layer order.
// Ops are laid out layer by layer, each layer in the canonical
// (oh, ow, oc, ic) order of Build, so the chain predecessor of any op
// that reads a partial sum is still the preceding op. Tile IDs of layer
// l carry L = l, so at most math.MaxInt16 layers fuse. Every
// consecutive pair of grids must satisfy CheckFusable. A single grid
// reduces exactly to Build.
func BuildFused(grids []*tile.Grid, m model.Model) (*Graph, error) {
	return BuildFusedInto(nil, grids, m)
}

// BuildFusedInto is BuildFused into the storage of dst, as BuildInto is
// Build: dst is nil (fresh storage) or a graph any of the four builds
// returned that nothing reads any more. On an error dst is untouched.
func BuildFusedInto(dst *Graph, grids []*tile.Grid, m model.Model) (*Graph, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("dfg: BuildFused needs at least one grid")
	}
	if len(grids) == 1 {
		return BuildInto(dst, grids[0], m), nil
	}
	if len(grids) > math.MaxInt16 {
		return nil, fmt.Errorf("dfg: BuildFused of %d layers, more than a tile ID numbers", len(grids))
	}
	for l := 1; l < len(grids); l++ {
		if err := CheckFusable(grids[l-1].Layer, grids[l].Layer); err != nil {
			return nil, err
		}
	}
	if dst == nil {
		dst = new(Graph)
	}
	gr := build(dst, grids, m)
	gr.cover = zeroed(gr.cover, gr.base[int(tile.Wt)*len(grids)]) // IN tiles number first
	gr.crossSuccs = zeroed(gr.crossSuccs, len(gr.Ops))
	gr.crossPreds = zeroed(gr.crossPreds, len(gr.Ops))

	// Stitch each boundary: map every consumer input tile's halo onto
	// the producer's output blocks. The covering tiles gain one use per
	// covered consumer input tile — released by the scheduler when that
	// input tile's own uses run out — so spill heuristics see producer
	// outputs as live until every consumer that needs them has read
	// them (directly or via a DRAM round-trip). Every cover list is a
	// window of one array, sized first: a tile's producer blocks are a
	// box, so their count summed over all tiles is a product of sums.
	// Each input tile is read by one op per out-channel block, each of
	// which gets a cross edge per covering tile.
	nCover, nEdges := 0, 0
	for l := 1; l < len(grids); l++ {
		gc, gp := grids[l], grids[l-1]
		n := spans(gc.NOH, gc.InRowRange, gp.F.OH, gp.NOH) * spans(gc.NOW, gc.InColRange, gp.F.OW, gp.NOW) * spans(gc.NIC, gc.ICRange, gp.F.OC, gp.NOC)
		nCover += n
		nEdges += n * gc.NOC
	}
	flat := slices.Grow(gr.ots[:0], nCover)
	for l := 1; l < len(grids); l++ {
		gc, gp := grids[l], grids[l-1]
		for oh := 0; oh < gc.NOH; oh++ {
			rowLo, rowN := gc.InRowRange(oh)
			for ow := 0; ow < gc.NOW; ow++ {
				colLo, colN := gc.InColRange(ow)
				for ic := 0; ic < gc.NIC; ic++ {
					chLo, chN := gc.ICRange(ic)
					in := tile.ID{Kind: tile.In, A: int32(oh), B: int32(ow), C: int32(ic), L: int16(l)}
					if rowN == 0 || colN == 0 || chN == 0 {
						continue // halo fully in padding: nothing to cover
					}
					h0, h1 := tile.BlockRange(rowLo, rowN, gp.F.OH, gp.NOH)
					w0, w1 := tile.BlockRange(colLo, colN, gp.F.OW, gp.NOW)
					c0, c1 := tile.BlockRange(chLo, chN, gp.F.OC, gp.NOC)
					lo := len(flat)
					for h := h0; h <= h1; h++ {
						for w := w0; w <= w1; w++ {
							for c := c0; c <= c1; c++ {
								ot := tile.ID{Kind: tile.Out, A: int32(h), B: int32(w), C: int32(c), L: int16(l - 1)}
								flat = append(flat, ot)
								gr.uses[gr.Num(ot)]++
							}
						}
					}
					gr.cover[gr.Num(in)] = flat[lo:len(flat):len(flat)]
				}
			}
		}
	}

	// Cross edges: every consumer op depends on the final accumulation
	// op of each tile covering its input, so the scheduler cannot start
	// it before the data it gathers (or round-trips) exists. The preds,
	// the succs and their count table share one array; a producer's succs
	// are counted into next[f+1] first, then placed in op order.
	gr.ots = flat
	gr.edges = resize(gr.edges, 2*nEdges+len(gr.Ops)+1)
	preds, succs, next := gr.edges[:0:nEdges], gr.edges[nEdges:2*nEdges], zeroed(gr.edges[2*nEdges:], len(gr.Ops)+1)
	for i := range gr.Ops {
		ots := gr.cover[gr.Num(gr.Ops[i].In)] // nil in the first layer
		if len(ots) == 0 {
			continue
		}
		lo := len(preds)
		for _, ot := range ots {
			f := gr.FinalOp(ot)
			preds = append(preds, f)
			next[f+1]++
		}
		gr.crossPreds[i] = preds[lo:len(preds):len(preds)]
	}
	for f := range gr.Ops {
		next[f+1] += next[f]
	}
	for i, ps := range gr.crossPreds {
		for _, f := range ps {
			succs[next[f]] = i
			next[f]++
		}
	}
	lo := 0
	for f, hi := range next[:len(gr.Ops)] { // next[f] is now where f's succs end
		if hi > lo {
			gr.crossSuccs[f] = succs[lo:hi:hi]
		}
		lo = hi
	}
	return gr, nil
}

// zeroed returns s with length n and every element zero, reusing it.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// spans sums, over the n consumer blocks of one dimension, how many
// producer blocks of size f (of np) the block's input range reads, as
// rng(i) gives it; a block whose range is empty reads none.
func spans(n int, rng func(int) (int, int), f, np int) int {
	total := 0
	for i := range n {
		if lo, k := rng(i); k > 0 {
			a, b := tile.BlockRange(lo, k, f, np)
			total += b - a + 1
		}
	}
	return total
}
