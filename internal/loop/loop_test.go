package loop

import (
	"fmt"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

func buildGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	l := layer.NewConv("s", 8, 8, 32, 24, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 4, OW: 4, OC: 12, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	return dfg.Build(g, model.New(arch.New("t", 2, arch.KiB(256), 32)))
}

func TestAllHas24UniquePermutations(t *testing.T) {
	dfs := All()
	if len(dfs) != 24 {
		t.Fatalf("All() returned %d dataflows, want 24", len(dfs))
	}
	seen := make(map[[4]Dim]bool)
	for _, df := range dfs {
		if seen[df.Perm] {
			t.Errorf("duplicate permutation %v", df.Perm)
		}
		seen[df.Perm] = true
		used := make(map[Dim]bool)
		for _, d := range df.Perm {
			used[d] = true
		}
		if len(used) != 4 {
			t.Errorf("permutation %v is not a permutation", df.Perm)
		}
		if df.Name == "" {
			t.Errorf("permutation %v unnamed", df.Perm)
		}
	}
}

func TestCanonicalAreValidAndDistinct(t *testing.T) {
	dfs := Canonical()
	if len(dfs) != 6 {
		t.Fatalf("Canonical() returned %d, want 6", len(dfs))
	}
	seen := make(map[[4]Dim]bool)
	for _, df := range dfs {
		if seen[df.Perm] {
			t.Errorf("duplicate canonical perm %v", df.Perm)
		}
		seen[df.Perm] = true
	}
}

// TestOrderIsValidPermutation: every dataflow emits each op exactly
// once and never schedules an op before its chain predecessor.
func TestOrderIsValidPermutation(t *testing.T) {
	gr := buildGraph(t)
	for _, df := range All() {
		order := Order(gr, df)
		if len(order) != len(gr.Ops) {
			t.Fatalf("%s: order has %d ops, want %d", df, len(order), len(gr.Ops))
		}
		pos := make([]int, len(gr.Ops))
		seen := make([]bool, len(gr.Ops))
		for i, op := range order {
			if op < 0 || op >= len(gr.Ops) || seen[op] {
				t.Fatalf("%s: bad op %d at position %d", df, op, i)
			}
			seen[op] = true
			pos[op] = i
		}
		for i := range gr.Ops {
			if p := gr.Pred(i); p >= 0 && pos[p] > pos[i] {
				t.Fatalf("%s: op %d scheduled before its predecessor %d", df, i, p)
			}
		}
	}
}

// TestOutputStationaryOrderFinishesChains: with ic innermost, each
// output tile's accumulation chain is contiguous in the sequence.
func TestOutputStationaryOrderFinishesChains(t *testing.T) {
	gr := buildGraph(t)
	df := Dataflow{Name: "os", Perm: [4]Dim{OH, OW, OC, IC}}
	order := Order(gr, df)
	for i := 0; i+1 < len(order); i += gr.Grid.NIC {
		for k := 1; k < gr.Grid.NIC; k++ {
			if order[i+k] != order[i]+1 {
				t.Fatalf("chain broken at %d: %v", i, order[i:i+gr.Grid.NIC])
			}
		}
	}
}

// TestInputStationaryReusesInput: with oc innermost, consecutive ops
// share the same input tile within one oc sweep.
func TestInputStationaryReusesInput(t *testing.T) {
	gr := buildGraph(t)
	df := Dataflow{Name: "is", Perm: [4]Dim{OH, OW, IC, OC}}
	order := Order(gr, df)
	for i := 0; i+1 < len(order); i++ {
		a, b := gr.Ops[order[i]], gr.Ops[order[i+1]]
		sameSweep := a.OH == b.OH && a.OW == b.OW && a.IC == b.IC
		if sameSweep && a.In != b.In {
			t.Fatalf("input tile changed inside an oc sweep at %d", i)
		}
	}
}

// stationaryKind returns the tile kind that the dataflow keeps on-chip
// longest (the "stationary" data type).
func (d Dataflow) stationaryKind() tile.Kind {
	switch d.Perm[3] {
	case IC:
		return tile.Out // partial sums stay while ic sweeps
	case OC:
		return tile.In // input stays while oc sweeps
	default:
		return tile.Wt
	}
}

func TestStationaryKind(t *testing.T) {
	cases := []struct {
		perm [4]Dim
		want tile.Kind
	}{
		{[4]Dim{OH, OW, OC, IC}, tile.Out},
		{[4]Dim{OH, OW, IC, OC}, tile.In},
		{[4]Dim{OC, IC, OH, OW}, tile.Wt},
		{[4]Dim{IC, OC, OW, OH}, tile.Wt},
	}
	for _, tc := range cases {
		df := Dataflow{Perm: tc.perm}
		if got := df.stationaryKind(); got != tc.want {
			t.Errorf("stationaryKind(%v) = %v, want %v", tc.perm, got, tc.want)
		}
	}
}

func TestDimAndDataflowStrings(t *testing.T) {
	if OC.String() != "oc" || OH.String() != "oh" || OW.String() != "ow" || IC.String() != "ic" {
		t.Error("dim names changed")
	}
	if Dim(9).String() == "" {
		t.Error("unknown dim renders empty")
	}
	// The rendering is part of every search cache key: pin it against
	// the fmt form it replaced, unknown dims included.
	for _, df := range append(All(), Canonical()[0], Dataflow{Name: "odd", Perm: [4]Dim{9, OC, 200, IC}}, Dataflow{}) {
		want := fmt.Sprintf("%s (%s,%s,%s,%s)", df.Name, df.Perm[0], df.Perm[1], df.Perm[2], df.Perm[3])
		if got := df.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(df.Append([]byte("x,"))); got != "x,"+want {
			t.Errorf("Append = %q, want %q", got, "x,"+want)
		}
	}
	if got := Canonical()[0].String(); got != "output-stationary (oh,ow,oc,ic)" {
		t.Errorf("String() = %q", got)
	}
}
