package sched

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// The reference signature: the scheduler's dataflow-map signature as it
// was before signatures were computed from per-step operand facts, kept
// verbatim (scratch buffers made local) as the oracle the packed
// signatures are checked against. It asks the scratchpad and the graph
// about every operand of every candidate set.

type sigRef struct {
	id      tile.ID
	kind    uint8
	present bool
	gather  bool
	size    int64
	count   int
}

func sigLess(a, b *sigRef) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.present != b.present {
		return a.present
	}
	if a.gather != b.gather {
		return a.gather
	}
	if a.size != b.size {
		return a.size < b.size
	}
	return a.count < b.count
}

func (e *engine) setSignature(ops []int) []byte {
	var refs []sigRef
	add := func(id tile.ID) {
		for i := range refs {
			if refs[i].id == id {
				refs[i].count++
				return
			}
		}
		present := e.mem.Has(id)
		gather := false
		if !present && id.Kind == tile.In && id.L > 0 {
			if ots := e.gr.Covering(id); len(ots) > 0 {
				gather = true
				for _, ot := range ots {
					if !e.mem.Has(ot) {
						gather = false
						break
					}
				}
			}
		}
		refs = append(refs, sigRef{
			id: id, kind: uint8(id.Kind), present: present, gather: gather,
			size: e.gr.Size(id), count: 1,
		})
	}
	for _, opIdx := range ops {
		op := &e.gr.Ops[opIdx]
		add(op.In)
		add(op.Wt)
		// Output tiles: first writes and psum continuations are
		// distinguished by residency + count.
		add(op.Out)
	}
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && sigLess(&refs[j], &refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	var buf []byte
	for i := range refs {
		r := &refs[i]
		buf = append(buf, r.kind)
		switch {
		case r.present:
			buf = append(buf, 1)
		case r.gather:
			buf = append(buf, 2)
		default:
			buf = append(buf, 0)
		}
		buf = strconv.AppendInt(buf, r.size, 36)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(r.count), 36)
		buf = append(buf, ';')
	}
	return buf
}

// fusedTestGraph stitches two shape-compatible layers with ragged
// tilings (several distinct tile sizes per kind).
func fusedTestGraph(t testing.TB, a arch.Config) *dfg.Graph {
	t.Helper()
	l1 := layer.NewConv("a", 10, 10, 16, 16, 3)
	l2 := layer.NewConv("b", 10, 10, 16, 8, 3)
	g1, err := tile.NewGrid(l1, tile.Factors{OH: 4, OW: 4, OC: 8, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tile.NewGrid(l2, tile.Factors{OH: 4, OW: 5, OC: 4, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(a))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// randomResidency fills the engine's scratchpad with random operand
// tiles of the graph, including — on fused graphs — complete covers of
// some consumer inputs, so that all three residency states occur.
func randomResidency(t *testing.T, e *engine, rng *rand.Rand) {
	t.Helper()
	admit := func(id tile.ID) {
		if _, err := e.mem.Allocate(id, e.gr.Size(id), e.remainUses); err != nil {
			t.Fatal(err)
		}
	}
	for n := rng.Intn(3 * len(e.gr.Ops) / 2); n > 0; n-- {
		op := &e.gr.Ops[rng.Intn(len(e.gr.Ops))]
		switch id := [3]tile.ID{op.In, op.Wt, op.Out}[rng.Intn(3)]; {
		case id.Kind == tile.In && id.L > 0 && rng.Intn(2) == 0:
			for _, ot := range e.gr.Covering(id) {
				admit(ot)
			}
		default:
			admit(id)
		}
	}
	e.mem.UnpinAll()
}

// forEachCombo calls visit with every size-subset of 0..n-1 in
// lexicographic order.
func forEachCombo(n, size int, visit func(combo []int)) {
	combo := make([]int, size)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == size {
			visit(combo)
			return
		}
		for i := start; i <= n-(size-depth); i++ {
			combo[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// TestPackedSignaturesPartitionLikeReference: over random windows of a
// single-layer and a fused graph with random residency, the packed
// signatures computed from the per-step facts split the combinations of
// every width into exactly the classes the reference signature does —
// jointly over all widths, because one step's seen-set spans them. The
// undeduplicated table the single-op fallback uses must agree too.
func TestPackedSignaturesPartitionLikeReference(t *testing.T) {
	a := arch.New("sig", 4, arch.KiB(1024), 32)
	graphs := map[string]*dfg.Graph{
		"layer": buildGraph(t, layer.NewConv("r", 14, 14, 48, 40, 3), tile.Factors{OH: 4, OW: 5, OC: 16, IC: 16}, a),
		"fused": fusedTestGraph(t, a),
	}
	for name, gr := range graphs {
		states := map[uint64]bool{}
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := newTestEngine(t, gr, Config{Arch: a})
			randomResidency(t, e, rng)
			window := rng.Perm(len(gr.Ops))[:4+rng.Intn(9)]

			check := func(dedup bool, widths int) {
				e.stepFacts(window, dedup)
				for _, k := range e.facts.keys {
					states[k>>60&3] = true
				}
				oldToNew, newToOld := map[string]string{}, map[string]string{}
				set := make([]int, 0, widths)
				for size := 1; size <= widths; size++ {
					forEachCombo(len(window), size, func(combo []int) {
						set = set[:0]
						for _, wi := range combo {
							set = append(set, window[wi])
						}
						was, now := string(e.setSignature(set)), fmt.Sprint(e.comboSignature(combo))
						if got, ok := oldToNew[was]; ok && got != now {
							t.Fatalf("%s seed %d dedup=%v: ops %v: packed signatures split a reference class", name, seed, dedup, set)
						}
						if got, ok := newToOld[now]; ok && got != was {
							t.Fatalf("%s seed %d dedup=%v: ops %v: packed signatures merge two reference classes", name, seed, dedup, set)
						}
						oldToNew[was], newToOld[now] = now, was
					})
				}
			}
			check(true, a.Cores)
			check(false, 1)
		}
		want := 2 // absent and resident
		if gr.Fused() {
			want = 3 // and gatherable
		}
		if len(states) != want {
			t.Errorf("%s: random residency produced %d of %d residency states", name, len(states), want)
		}
	}
}

// TestSigSetMatchesMap: the arena-backed signature set answers like a
// map of strings, across growth and reuse.
func TestSigSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s sigSet
	for round := 0; round < 3; round++ {
		s.reset()
		ref := map[string]bool{}
		for i := 0; i < 5000; i++ {
			sig := make([]uint64, rng.Intn(5))
			for j := range sig {
				sig[j] = uint64(rng.Intn(6)) << uint(8*rng.Intn(8))
			}
			key := fmt.Sprint(sig)
			if got := s.add(sig); got == ref[key] {
				t.Fatalf("round %d: add(%v) = %v, want %v", round, sig, got, !ref[key])
			}
			ref[key] = true
		}
	}
}
