package sched

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestCommitReplaysWinningEvaluation: evalSet rolls every candidate's
// placement back and apply places the winner again, so on every step of
// every kind of schedule the committed placement must come out exactly
// as evaluated — same loads, same evictions, same utilisation — and the
// hand-driven run (step's two halves with the comparison in between)
// must end where Schedule does.
func TestCommitReplaysWinningEvaluation(t *testing.T) {
	roomy, tight := arch.New("replay", 4, arch.KiB(96), 32), arch.New("replay-fused", 4, arch.KiB(12), 32)
	single := buildGraph(t, layer.NewConv("p", 28, 28, 64, 64, 3), tile.Factors{OH: 7, OW: 14, OC: 16, IC: 16}, roomy)
	fused := fusedTestGraph(t, tight)
	plan := &fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 1, Cycle: 4000}},
		DMA:      []fault.Derate{{From: 1000, To: 50000, Factor: 3}},
	}
	priorities := []Priority{PriorityDefault, PriorityMinTransfer, PriorityMinSpill, PriorityChainDepth}
	policies := []spm.Policy{spm.PolicyFlexer, spm.PolicyFirstFit, spm.PolicySmallestFirst}
	steps, loads, gathers, evictions := 0, 0, 0, 0
	for _, gr := range []*dfg.Graph{single, fused} {
		a := roomy
		if gr.LastLayer() > 0 {
			a = tight
		}
		for _, pr := range priorities {
			for _, pol := range policies {
				for _, fp := range []*fault.Plan{nil, plan} {
					for _, mode := range []string{"ooo", "hinted", "static"} {
						if mode != "ooo" && pr != PriorityDefault {
							continue // the priority only ranks out-of-order candidates
						}
						if mode == "static" && gr.LastLayer() > 0 {
							continue // a loop order is per grid: Schedule refuses one on a fused graph
						}
						cfg := Config{Arch: a, Priority: pr, MemPolicy: pol, FaultPlan: fp}
						// Index order is a valid issue order of both graphs: the
						// fused one's hint; the single-layer one gets a real
						// loop-order hint.
						switch {
						case mode == "static":
							cfg.Order = seq(len(gr.Ops))
						case mode == "hinted" && gr.LastLayer() > 0:
							cfg.Hint = seq(len(gr.Ops))
						case mode == "hinted":
							cfg.Hint = loop.Order(gr, loop.Canonical()[2])
						}
						name := fmt.Sprintf("fused=%v/%v/%v/faults=%v/%s", gr.LastLayer() > 0, pr, pol, fp != nil, mode)
						want, err := Schedule(gr, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}

						e := newTestEngine(t, gr, cfg)
						for e.nDone < len(gr.Ops) {
							won := e.nextSet()
							if won == nil {
								t.Fatalf("%s: no feasible set at step %d", name, steps)
							}
							eval := *won
							eval.loads = append([]loadRec(nil), won.loads...)
							eval.spills = append([]spm.Eviction(nil), won.spills...)
							eval.ops = append([]int(nil), won.ops...)
							if err := e.apply(won); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							// apply recycled won, but nothing has reused it yet:
							// it still holds the committed placement's record.
							if !reflect.DeepEqual(normalize(*won), normalize(eval)) {
								t.Fatalf("%s step %d: committed placement\n%+v\nevaluated\n%+v", name, steps, *won, eval)
							}
							if err := e.mem.CheckInvariants(); err != nil {
								t.Fatalf("%s step %d: %v", name, steps, err)
							}
							steps++
							evictions += len(eval.spills)
							for _, ld := range eval.loads {
								if ld.gather {
									gathers++
								} else {
									loads++
								}
							}
						}
						if got, _ := e.finish(nil); got.LatencyCycles != want.LatencyCycles || got.TrafficBytes() != want.TrafficBytes() {
							t.Fatalf("%s: hand-driven run ends at %d cycles / %d bytes, Schedule at %d / %d",
								name, got.LatencyCycles, got.TrafficBytes(), want.LatencyCycles, want.TrafficBytes())
						}
					}
				}
			}
		}
	}
	if loads == 0 || gathers == 0 || evictions == 0 {
		t.Errorf("matrix exercised %d loads, %d gathers, %d evictions over %d steps; want all non-zero", loads, gathers, evictions, steps)
	}
}

// normalize maps empty and nil record slices to the same value.
func normalize(ev setEval) setEval {
	if len(ev.loads) == 0 {
		ev.loads = nil
	}
	if len(ev.spills) == 0 {
		ev.spills = nil
	}
	return ev
}

// TestFallbackScansWholeReadyQueue: when no op of the window fits the
// scratchpad, the scheduler falls back to single ops from the whole
// ready queue. Here that queue holds thousands of ops of which only the
// ragged-edge ones fit; the fallback must find the best-ranked of them,
// prune the rest by signature, and build its operand table without
// de-duplicating tiles across the queue (three entries per op — the
// scan that de-duplicates a window would be quadratic here).
func TestFallbackScansWholeReadyQueue(t *testing.T) {
	l := layer.NewConv("edge", 130, 130, 16, 32, 3)
	// 33 x 33 spatial blocks: 32 of 4 rows/columns, then one of 2.
	f := tile.Factors{OH: 4, OW: 4, OC: 16, IC: 16}
	g, err := tile.NewGrid(l, f)
	if err != nil {
		t.Fatal(err)
	}
	corner := g.Size(tile.ID{Kind: tile.In, A: 32, B: 32, C: 0}) + g.Size(tile.ID{Kind: tile.Wt, A: 0, B: 0}) + g.Size(tile.ID{Kind: tile.Out, A: 32, B: 32, C: 0})
	edge := g.Size(tile.ID{Kind: tile.In, A: 0, B: 32, C: 0}) + g.Size(tile.ID{Kind: tile.Wt, A: 0, B: 0}) + g.Size(tile.ID{Kind: tile.Out, A: 0, B: 32, C: 0})
	if corner >= edge {
		t.Fatalf("corner op footprint %d not below edge op footprint %d", corner, edge)
	}
	a := arch.New("sliver", 4, corner, 32) // only a corner op fits
	gr := buildGraph(t, l, f, a)
	e := newTestEngine(t, gr, Config{Arch: a})
	if len(e.ready) < 100*DefaultMaxReadyWindow {
		t.Fatalf("ready queue of %d ops is not far larger than the window", len(e.ready))
	}
	ev := e.nextSetOoO()
	if ev == nil {
		t.Fatal("fallback found no feasible op")
	}
	if len(ev.ops) != 1 {
		t.Fatalf("fallback issued %v, want a single op", ev.ops)
	}
	if op := gr.Ops[ev.ops[0]]; op.Out.A != 32 || op.Out.B != 32 || op.Out.C != 0 {
		t.Errorf("fallback chose %v, want the first corner op", op)
	}
	if got, want := len(e.facts.keys), 3*len(e.ready); got != want {
		t.Errorf("fallback operand table has %d entries for %d ready ops, want %d (no de-duplication)", got, len(e.ready), want)
	}
	// Four block shapes (interior, two edges, corner): four signatures
	// evaluated by the fallback, everything else pruned.
	if e.nEval > 50 || e.nPruned < len(e.ready)-50 {
		t.Errorf("fallback evaluated %d and pruned %d of %d ready ops", e.nEval, e.nPruned, len(e.ready))
	}
}
