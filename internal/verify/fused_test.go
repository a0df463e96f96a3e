package verify

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

// buildFused returns a two-layer fused graph: 16x16x32 -> conv3x3(32)
// -> conv3x3(16), tiled so each layer has a few blocks per dimension.
func buildFused(t testing.TB, spmKiB int64) (*dfg.Graph, arch.Config) {
	t.Helper()
	a := arch.New("vf", 2, arch.KiB(spmKiB), 32)
	l1 := layer.NewConv("f1", 16, 16, 32, 32, 3)
	l2 := layer.NewConv("f2", 16, 16, 32, 16, 3)
	g1, err := tile.NewGrid(l1, tile.Factors{OH: 8, OW: 8, OC: 16, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tile.NewGrid(l2, tile.Factors{OH: 8, OW: 8, OC: 16, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(a))
	if err != nil {
		t.Fatal(err)
	}
	return gr, a
}

func TestVerifyAcceptsFusedSchedule(t *testing.T) {
	gr, a := buildFused(t, 256)
	r, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(gr, r, a); err != nil {
		t.Fatalf("fused schedule rejected: %v", err)
	}
	// With a roomy scratchpad the consumer layer should assemble at
	// least some inputs on-chip.
	if r.GatherBytes == 0 {
		t.Error("no gathers in a 256 KiB scratchpad fused run")
	}
	for k, s := range r.PerKind {
		if sim.MemKind(k) == sim.Gather && s.GatherBytes != r.GatherBytes {
			t.Errorf("per-kind gather bytes %d != result gather bytes %d", s.GatherBytes, r.GatherBytes)
		}
	}
}

// A scratchpad too small to keep producer outputs resident forces the
// scheduler onto the DRAM round-trip fallback; the schedule must still
// verify (the strict cross-layer check proves each round-trip happened).
func TestVerifyAcceptsFusedScheduleTinySPM(t *testing.T) {
	gr, a := buildFused(t, 24)
	r, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(gr, r, a); err != nil {
		t.Fatalf("spill-fallback schedule rejected: %v", err)
	}
	dramLoads := 0
	for _, m := range r.MemRecords {
		if m.Kind == sim.Load && m.Tile.Kind == tile.In && m.Tile.L > 0 {
			dramLoads++
		}
	}
	if dramLoads == 0 {
		t.Error("24 KiB scratchpad produced no DRAM round-trips for consumer inputs")
	}
}

func TestVerifyRejectsCorruptedFusedSchedules(t *testing.T) {
	gr, a := buildFused(t, 256)
	good, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(gr, good, a); err != nil {
		t.Fatal(err)
	}
	clone := func() *sched.Result {
		c := *good
		c.OpRecords = append([]sim.OpRecord(nil), good.OpRecords...)
		c.MemRecords = append([]sim.MemRecord(nil), good.MemRecords...)
		return &c
	}
	gatherIdx := -1
	for i, m := range good.MemRecords {
		if m.Kind == sim.Gather {
			gatherIdx = i
			break
		}
	}
	if gatherIdx < 0 {
		t.Fatal("no gather to corrupt")
	}
	// Moving a gather into an idle stretch of the DMA channel that opens
	// before its producers finish trips the producer rule alone: no
	// transfer overlaps, and the tile arrives no later than it did.
	t.Run("gather before its producers", func(t *testing.T) {
		end := make([]int64, len(gr.Ops))
		for _, rec := range good.OpRecords {
			end[rec.Op] = rec.End
		}
		mems := slices.Clone(good.MemRecords)
		slices.SortStableFunc(mems, func(a, b sim.MemRecord) int { return cmp.Compare(a.Start, b.Start) })
		for i, g := range good.MemRecords {
			if g.Kind != sim.Gather {
				continue
			}
			var fin int64 // when the last of its producers finishes
			for _, ot := range gr.Covering(g.Tile) {
				fin = max(fin, end[gr.FinalOp(ot)])
			}
			var free int64 // the channel is idle from here to the next transfer
			for _, m := range mems {
				if m == g {
					continue
				}
				if free >= fin {
					break
				}
				if m.Start-free >= g.End-g.Start {
					bad := clone()
					bad.MemRecords[i].Start, bad.MemRecords[i].End = free, free+g.End-g.Start
					err := Schedule(gr, bad, a)
					if err == nil || !strings.Contains(err.Error(), "before producer") {
						t.Fatalf("gather of %v moved from %d to %d: %v", g.Tile, g.Start, free, err)
					}
					return
				}
				free = max(free, m.End)
			}
		}
		t.Fatal("no idle DMA stretch before a gather's producers finish")
	})
	cases := []struct {
		name    string
		mutate  func(*sched.Result)
		keyword string
	}{
		{
			"gather into a DRAM load hides the round-trip",
			func(r *sched.Result) {
				m := r.MemRecords[gatherIdx]
				m.Kind = sim.Load
				r.MemRecords[gatherIdx] = m
			},
			"without a current off-chip copy",
		},
		{
			"drop a final-layer writeback",
			func(r *sched.Result) {
				for i, m := range r.MemRecords {
					if m.Kind == sim.Writeback && m.Tile.L == gr.LastLayer() {
						r.MemRecords = append(r.MemRecords[:i], r.MemRecords[i+1:]...)
						return
					}
				}
				t.Fatal("no final-layer writeback found")
			},
			"never written off-chip",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := clone()
			tc.mutate(bad)
			err := Schedule(gr, bad, a)
			if err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if !strings.Contains(err.Error(), tc.keyword) {
				t.Fatalf("error %q does not mention %q", err, tc.keyword)
			}
		})
	}
}

// A layerwise schedule may not contain gather records at all.
func TestVerifyRejectsGatherInLayerwise(t *testing.T) {
	gr, a := build(t, 2)
	good, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.MemRecords = append([]sim.MemRecord(nil), good.MemRecords...)
	bad.MemRecords[0].Kind = sim.Gather
	err = Schedule(gr, &bad, a)
	if err == nil || !strings.Contains(err.Error(), "non-fused") {
		t.Fatalf("gather in layerwise schedule: %v", err)
	}
}
