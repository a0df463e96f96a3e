package verify

import (
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

func build(t testing.TB, cores int) (*dfg.Graph, arch.Config) {
	t.Helper()
	a := arch.New("v", cores, arch.KiB(256), 32)
	l := layer.NewConv("p", 28, 28, 128, 128, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 14, OW: 14, OC: 32, IC: 32})
	if err != nil {
		t.Fatal(err)
	}
	return dfg.Build(g, model.New(a)), a
}

func TestVerifyAcceptsRealSchedules(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		gr, a := build(t, cores)
		ooo, err := sched.Schedule(gr, sched.Config{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		if err := Schedule(gr, ooo, a); err != nil {
			t.Errorf("cores=%d OoO: %v", cores, err)
		}
		for _, df := range loop.Canonical()[:3] {
			static, err := sched.Schedule(gr, sched.Config{Arch: a, Order: loop.Order(gr, df)})
			if err != nil {
				t.Fatal(err)
			}
			if err := Schedule(gr, static, a); err != nil {
				t.Errorf("cores=%d %s: %v", cores, df.Name, err)
			}
		}
	}
}

// corrupt applies one mutation to a copy of the result and expects the
// verifier to flag it.
func TestVerifyRejectsCorruptedSchedules(t *testing.T) {
	gr, a := build(t, 2)
	good, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *sched.Result {
		c := *good
		c.OpRecords = append([]sim.OpRecord(nil), good.OpRecords...)
		c.MemRecords = append([]sim.MemRecord(nil), good.MemRecords...)
		return &c
	}
	cases := []struct {
		name    string
		mutate  func(*sched.Result)
		keyword string
	}{
		{
			"drop an op",
			func(r *sched.Result) { r.OpRecords = r.OpRecords[:len(r.OpRecords)-1] },
			"op records",
		},
		{
			"duplicate an op",
			func(r *sched.Result) { r.OpRecords[1] = r.OpRecords[0] },
			"twice",
		},
		{
			"break a dependency",
			func(r *sched.Result) {
				// Find a psum op and move it before its predecessor.
				for i := range r.OpRecords {
					op := &r.OpRecords[i]
					if gr.Ops[op.Op].ReadsPsum {
						op.Start, op.End = 0, 1
						return
					}
				}
			},
			"predecessor",
		},
		{
			"overlap a core",
			func(r *sched.Result) {
				a, b := &r.OpRecords[0], (*sim.OpRecord)(nil)
				for i := 1; i < len(r.OpRecords); i++ {
					if r.OpRecords[i].NPU == a.NPU {
						b = &r.OpRecords[i]
						break
					}
				}
				b.Start, b.End = a.Start, a.End
			},
			"overlap",
		},
		{
			"bad core index",
			func(r *sched.Result) { r.OpRecords[0].NPU = 99 },
			"core",
		},
		{
			"overlap the DMA channel",
			func(r *sched.Result) {
				r.MemRecords[1].Start = r.MemRecords[0].Start
			},
			"DMA",
		},
		{
			"drop a load",
			func(r *sched.Result) {
				for i, m := range r.MemRecords {
					if m.Kind == sim.Load {
						r.MemRecords = append(r.MemRecords[:i], r.MemRecords[i+1:]...)
						return
					}
				}
			},
			"never loaded",
		},
		{
			"move a tile off the grid",
			func(r *sched.Result) { r.MemRecords[0].Tile.A = 99 },
			"not a tile of the graph",
		},
		{
			"lose an output",
			func(r *sched.Result) {
				kept := r.MemRecords[:0]
				for _, m := range r.MemRecords {
					if m.Kind == sim.Writeback || m.Kind == sim.Spill {
						continue
					}
					kept = append(kept, m)
				}
				r.MemRecords = kept
			},
			"", // may fail on several checks; any error is fine
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := clone()
			tc.mutate(bad)
			err := Schedule(gr, bad, a)
			if err == nil {
				t.Fatal("verifier accepted corrupted schedule")
			}
			if tc.keyword != "" && !strings.Contains(err.Error(), tc.keyword) {
				t.Errorf("error %q does not mention %q", err, tc.keyword)
			}
		})
	}
	// The pristine schedule still verifies (mutations worked on copies).
	if err := Schedule(gr, good, a); err != nil {
		t.Fatalf("pristine schedule rejected: %v", err)
	}
}

// BenchmarkVerify times one verification of each of goodCases'
// out-of-order schedules.
func BenchmarkVerify(b *testing.B) {
	layerwise, fused := goodCases(b)
	for _, c := range []struct {
		name string
		goodCase
	}{{"layerwise", layerwise}, {"fused", fused}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := Schedule(c.gr, c.r, c.a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReloadFollowsItsSpill: on vgg16/4 conv3_1, arch1, tiling
// 3x5x256x26, one op of a set of the unhinted out-of-order run evicts
// the dirty partial sum OT(0,2,0) and a later one reloads it. Issued
// with the set's other loads, ahead of its spill, the reload would read
// an off-chip copy older than the tile's last write: the spill must
// come first, and the schedule must verify.
func TestReloadFollowsItsSpill(t *testing.T) {
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Scale(4).Layer("conv3_1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	g, err := tile.NewGrid(l, tile.Factors{OH: 3, OW: 5, OC: 256, IC: 26})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	r, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(gr, r, a); err != nil {
		t.Fatal(err)
	}
	ot := tile.ID{Kind: tile.Out, A: 0, B: 2, C: 0}
	var spilled, reloads int
	for _, m := range r.MemRecords {
		if m.Tile != ot {
			continue
		}
		switch m.Kind {
		case sim.Spill:
			spilled++
		case sim.Load:
			reloads++
			if spilled < reloads {
				t.Errorf("reload %d of %v at %d precedes its spill", reloads, ot, m.Start)
			}
		}
	}
	if reloads == 0 {
		t.Fatalf("%v is never reloaded: the case this test pins is gone", ot)
	}
}
