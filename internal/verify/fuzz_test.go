package verify

import (
	"slices"
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

// goodCase is a real schedule and the graph and machine it is for.
type goodCase struct {
	gr *dfg.Graph
	a  arch.Config
	r  *sched.Result
}

// goodCases schedules out of order the graphs the rejection tests
// corrupt: build's on two cores, and buildFused's with 256 KiB.
func goodCases(tb testing.TB) (layerwise, fused goodCase) {
	tb.Helper()
	schedule := func(gr *dfg.Graph, a arch.Config) goodCase {
		r, err := sched.Schedule(gr, sched.Config{Arch: a})
		if err != nil {
			tb.Fatal(err)
		}
		return goodCase{gr, a, r}
	}
	return schedule(build(tb, 2)), schedule(buildFused(tb, 256))
}

// numMutations is the number of ways mutate changes a record.
const numMutations = 10

// hoistReload is mutate's last way: the reload of a partial sum that
// rec picks, modulo their number, trades intervals with the latest
// spill of its tile before it, so it reads the off-chip copy before the
// spill writes it. A schedule without such a reload is left as it is.
const hoistReload = numMutations - 1

// mutate returns a copy of r with one record changed, the way what
// selects: an op record's index, core, interval (shifted by v) or end,
// a transfer record's interval (shifted by v), kind, or tile's
// coordinate, kind or layer, or a reload hoisted ahead of its spill.
// rec picks the record modulo their count; v is the new value or the
// shift.
func mutate(r *sched.Result, what uint8, rec int, v int64) *sched.Result {
	c := *r
	c.OpRecords, c.MemRecords = slices.Clone(r.OpRecords), slices.Clone(r.MemRecords)
	op, m := &c.OpRecords[rec%len(c.OpRecords)], &c.MemRecords[rec%len(c.MemRecords)]
	switch what % numMutations {
	case 0:
		op.Op = int(v)
	case 1:
		op.NPU = int(v)
	case 2:
		op.Start, op.End = op.Start+v, op.End+v
	case 3:
		op.End = v
	case 4:
		m.Start, m.End = m.Start+v, m.End+v
	case 5:
		m.Kind = sim.MemKind(v)
	case 6:
		m.Tile.A = int32(v)
	case 7:
		m.Tile.Kind = tile.Kind(v)
	case 8:
		m.Tile.L = int16(v)
	case hoistReload:
		var pairs [][2]int // (spill, reload) indices into MemRecords
		for i, ld := range c.MemRecords {
			if ld.Kind != sim.Load || ld.Tile.Kind != tile.Out {
				continue
			}
			for j := i - 1; j >= 0; j-- {
				if sp := c.MemRecords[j]; sp.Tile == ld.Tile && sp.Kind == sim.Spill {
					pairs = append(pairs, [2]int{j, i})
					break
				}
			}
		}
		if len(pairs) > 0 {
			p := pairs[rec%len(pairs)]
			sp, ld := &c.MemRecords[p[0]], &c.MemRecords[p[1]]
			sp.Start, sp.End, ld.Start, ld.End = ld.Start, ld.End, sp.Start, sp.End
		}
	}
	return &c
}

// FuzzVerify hands the verifier schedules no scheduler made: a small
// real schedule, layerwise or fused, with one record changed by mutate.
// Schedules reach the verifier from outside the program, so whatever
// the change it must return a verdict, never panic; the unchanged
// schedule must pass, and one with a reload hoisted ahead of its spill
// must not.
func FuzzVerify(f *testing.F) {
	layerwise, fused := goodCases(f)
	for _, c := range []goodCase{layerwise, fused} {
		if err := Schedule(c.gr, c.r, c.a); err != nil {
			f.Fatalf("unmutated schedule rejected: %v", err)
		}
	}
	for what := range uint8(numMutations) {
		f.Add(what%2 == 1, what, uint16(what)*7, int64(-1))
		f.Add(what%2 == 0, what, uint16(what)*11, int64(what)<<40)
	}
	f.Fuzz(func(t *testing.T, isFused bool, what uint8, rec uint16, v int64) {
		c := layerwise
		if isFused {
			c = fused
		}
		m := mutate(c.r, what, int(rec), v)
		err := Schedule(c.gr, m, c.a) // any verdict but this one; a panic fails
		if what%numMutations == hoistReload && err == nil && !slices.Equal(m.MemRecords, c.r.MemRecords) {
			t.Fatal("a partial-sum reload hoisted ahead of its spill was accepted")
		}
	})
}

// TestHoistedReloadRejected: FuzzVerify's layerwise schedule reloads
// partial sums it spilled, and hoisting any such reload ahead of its
// spill is caught as a read of a stale off-chip copy.
func TestHoistedReloadRejected(t *testing.T) {
	c, _ := goodCases(t)
	for rec := range 4 {
		m := mutate(c.r, hoistReload, rec, 0)
		if slices.Equal(m.MemRecords, c.r.MemRecords) {
			t.Fatal("no partial sum is reloaded after a spill")
		}
		if err := Schedule(c.gr, m, c.a); err == nil || !strings.Contains(err.Error(), "older than the tile's last write") {
			t.Errorf("reload %d hoisted: %v", rec, err)
		}
	}
}
