// Package loop generates the static loop-order (fixed-dataflow)
// schedules that Flexer is compared against. A dataflow is a permutation
// of the four tile loops (output channel, output row, output column,
// input channel); iterating the loops in that order yields a fixed
// operation sequence whose data reuse follows the classic stationary
// patterns: output/partial-sum-stationary when the input-channel loop is
// innermost, input-stationary when the output-channel loop is innermost
// under the spatial loops, weight-stationary when the spatial loops are
// innermost, and so on.
//
// The best static baseline of the paper is the best schedule over all
// data-stationary models and viable tiling sizes; Dataflows and All
// provide the loop orders, and the in-order mode of package sched turns
// a sequence into a timed schedule with the same memory machinery as
// the out-of-order scheduler, so the comparison isolates execution
// order.
package loop

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Dim identifies one of the four tile loops.
type Dim uint8

// The tile loop dimensions.
const (
	OC Dim = iota
	OH
	OW
	IC
)

// String names the dimension.
func (d Dim) String() string {
	switch d {
	case OC:
		return "oc"
	case OH:
		return "oh"
	case OW:
		return "ow"
	case IC:
		return "ic"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// Dataflow is one static loop ordering, outermost loop first.
type Dataflow struct {
	Name string
	Perm [4]Dim
}

// String renders the dataflow, e.g. "output-stationary (oh,ow,oc,ic)".
func (d Dataflow) String() string { return string(d.Append(nil)) }

// Append appends the String form to b. The search cache key spells out
// every baseline dataflow of every request, so this avoids fmt.
func (d Dataflow) Append(b []byte) []byte {
	b = append(append(b, d.Name...), " ("...)
	for i, dim := range d.Perm {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, dim.String()...)
	}
	return append(b, ')')
}

// Canonical returns the six named stationary dataflows used as the
// default baseline search space.
func Canonical() []Dataflow {
	return []Dataflow{
		{Name: "output-stationary", Perm: [4]Dim{OH, OW, OC, IC}},
		{Name: "input-stationary", Perm: [4]Dim{OH, OW, IC, OC}},
		{Name: "weight-stationary", Perm: [4]Dim{OC, IC, OH, OW}},
		{Name: "weight-stationary-icf", Perm: [4]Dim{IC, OC, OH, OW}},
		{Name: "input-stationary-icf", Perm: [4]Dim{IC, OH, OW, OC}},
		{Name: "output-stationary-ocf", Perm: [4]Dim{OC, OH, OW, IC}},
	}
}

// All returns all 24 loop permutations for exhaustive baseline search.
func All() []Dataflow {
	dims := [4]Dim{OC, OH, OW, IC}
	var out []Dataflow
	var permute func(rem []Dim, cur []Dim)
	permute = func(rem, cur []Dim) {
		if len(rem) == 0 {
			var p [4]Dim
			copy(p[:], cur)
			out = append(out, Dataflow{Name: permName(p), Perm: p})
			return
		}
		for i := range rem {
			next := make([]Dim, 0, len(rem)-1)
			next = append(next, rem[:i]...)
			next = append(next, rem[i+1:]...)
			permute(next, append(cur, rem[i]))
		}
	}
	permute(dims[:], nil)
	return out
}

func permName(p [4]Dim) string {
	// Classify by the innermost loop: the data type whose tile index
	// does not involve it stays resident longest.
	switch p[3] {
	case IC:
		return "psum-stationary"
	case OC:
		return "input-stationary"
	default:
		return "weight-stationary"
	}
}

// counts returns the grid's iteration count per loop, indexed by Dim.
func counts(g *tile.Grid) [4]int {
	return [4]int{OC: g.NOC, OH: g.NOH, OW: g.NOW, IC: g.NIC}
}

// Order materializes the operation sequence of the dataflow over the
// graph's tile grid: the loops iterate in Perm order (outermost first)
// and each innermost iteration emits the op at the current block
// coordinates. Every sequence respects the partial-sum chains because
// all loops ascend. A Perm naming a loop that does not exist iterates
// nothing.
func Order(gr *dfg.Graph, df Dataflow) []int {
	return AppendOrder(make([]int, 0, gr.Grid.NumOps()), gr, df)
}

// AppendOrder appends Order(gr, df) to order and returns the extended
// slice: a search that runs many static orders reuses one buffer.
func AppendOrder(order []int, gr *dfg.Graph, df Dataflow) []int {
	n, p := counts(gr.Grid), df.Perm
	if max(p[0], p[1], p[2], p[3]) > IC {
		return order
	}
	order = slices.Grow(order, gr.Grid.NumOps())
	var idx [4]int
	for a := 0; a < n[p[0]]; a++ {
		idx[p[0]] = a
		for b := 0; b < n[p[1]]; b++ {
			idx[p[1]] = b
			for c := 0; c < n[p[2]]; c++ {
				idx[p[2]] = c
				for d := 0; d < n[p[3]]; d++ {
					idx[p[3]] = d
					order = append(order, gr.OpAt(idx[OH], idx[OW], idx[OC], idx[IC]))
				}
			}
		}
	}
	return order
}

// Reduce returns the representative of the loop orders that walk g in
// perm's op sequence: perm with g's one-iteration loops moved outermost,
// in Dim order. Such a loop orders nothing, so two dataflows have the
// same Order over g exactly when they reduce to the same permutation.
func Reduce(g *tile.Grid, perm [4]Dim) [4]Dim {
	n := counts(g)
	key := func(d Dim) Dim { // a one-iteration loop sorts by name, the others stay put behind
		if d <= IC && n[d] == 1 {
			return d
		}
		return IC + 1
	}
	slices.SortStableFunc(perm[:], func(a, b Dim) int { return cmp.Compare(key(a), key(b)) })
	return perm
}
