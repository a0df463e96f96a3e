package stats

import (
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/tile"
)

func schedulePressure(t *testing.T) (*dfg.Graph, *sched.Result) {
	t.Helper()
	a := arch.New("t", 2, arch.KiB(256), 32)
	l := layer.NewConv("p", 28, 28, 128, 128, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 14, OW: 14, OC: 32, IC: 32})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	r, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	return gr, r
}

func TestMovementsConsistent(t *testing.T) {
	_, r := schedulePressure(t)
	ms := Movements(r)
	var total int64
	for k := 0; k < tile.NumKinds; k++ {
		m := ms[k]
		if m.Kind != tile.Kind(k) {
			t.Errorf("kind %d mislabeled %v", k, m.Kind)
		}
		total += m.TotalBytes
		hist := 0
		for moves, tiles := range m.ReloadHistogram {
			if moves <= 0 || tiles <= 0 {
				t.Errorf("%v: degenerate histogram entry %d:%d", m.Kind, moves, tiles)
			}
			hist += moves * tiles
			if moves > m.MaxMoves {
				t.Errorf("%v: histogram entry %d above MaxMoves %d", m.Kind, moves, m.MaxMoves)
			}
		}
		if hist != m.Transfers {
			t.Errorf("%v: histogram accounts %d transfers, recorded %d", m.Kind, hist, m.Transfers)
		}
	}
	if total != r.TrafficBytes() {
		t.Errorf("movements total %d != schedule traffic %d", total, r.TrafficBytes())
	}
}

// TestHistogramCountsEveryTransfer: the reload histogram of a kind
// accounts for every DMA record of that kind — loads, spills,
// write-backs and, in a fused schedule, on-chip gathers.
func TestHistogramCountsEveryTransfer(t *testing.T) {
	_, single := schedulePressure(t)
	a := arch.New("fused", 4, arch.KiB(12), 32)
	g1, err := tile.NewGrid(layer.NewConv("a", 10, 10, 16, 16, 3), tile.Factors{OH: 4, OW: 4, OC: 8, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tile.NewGrid(layer.NewConv("b", 10, 10, 16, 8, 3), tile.Factors{OH: 4, OW: 5, OC: 4, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(a))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if fused.GatherBytes == 0 {
		t.Fatal("fused schedule gathers nothing")
	}
	for name, r := range map[string]*sched.Result{"single": single, "fused": fused} {
		for k, m := range Movements(r) {
			ks := r.PerKind[k]
			sum := 0
			for moves, tiles := range m.ReloadHistogram {
				sum += moves * tiles
			}
			if want := ks.LoadCount + ks.SpillCount + ks.WritebackCount + ks.GatherCount; sum != want {
				t.Errorf("%s %v: histogram accounts %d movements, schedule has %d", name, m.Kind, sum, want)
			}
		}
	}
}

// TestMovementsCountsMemRecords: a hand-built timeline with a known
// histogram.
func TestMovementsCountsMemRecords(t *testing.T) {
	in0, in1 := tile.ID{Kind: tile.In}, tile.ID{Kind: tile.In, A: 1}
	wt := tile.ID{Kind: tile.Wt}
	out := tile.ID{Kind: tile.Out}
	r := &sched.Result{MemRecords: []sim.MemRecord{
		{Tile: in0, Kind: sim.Load}, {Tile: wt, Kind: sim.Load}, {Tile: in1, Kind: sim.Load},
		{Tile: out, Kind: sim.Spill}, {Tile: in0, Kind: sim.Load}, {Tile: out, Kind: sim.Load},
		{Tile: in0, Kind: sim.Load}, {Tile: out, Kind: sim.Writeback},
	}}
	ms := Movements(r)
	want := [tile.NumKinds]map[int]int{tile.In: {3: 1, 1: 1}, tile.Wt: {1: 1}, tile.Out: {3: 1}}
	for k, m := range ms {
		if !reflect.DeepEqual(m.ReloadHistogram, want[k]) {
			t.Errorf("%v: histogram %v, want %v", m.Kind, m.ReloadHistogram, want[k])
		}
	}
	if ms[tile.In].MaxMoves != 3 || ms[tile.Wt].MaxMoves != 1 || ms[tile.Out].MaxMoves != 3 {
		t.Errorf("MaxMoves = %d/%d/%d, want 3/1/3", ms[tile.In].MaxMoves, ms[tile.Wt].MaxMoves, ms[tile.Out].MaxMoves)
	}
}

func TestOnChipIdealIsLowerBound(t *testing.T) {
	gr, r := schedulePressure(t)
	ideal := OnChipIdeal(gr.Grid)
	ms := Movements(r)
	for k := 0; k < tile.NumKinds; k++ {
		if ms[k].TotalBytes < ideal[k] {
			t.Errorf("%v: schedule moved %d bytes, below on-chip ideal %d",
				tile.Kind(k), ms[k].TotalBytes, ideal[k])
		}
	}
}

func TestReusePattern(t *testing.T) {
	var none [tile.NumKinds]bool
	if got := reusePattern(none); got != "none" {
		t.Errorf("empty pattern = %q", got)
	}
	var inwt [tile.NumKinds]bool
	inwt[tile.In] = true
	inwt[tile.Wt] = true
	if got := reusePattern(inwt); got != "IN+WT" {
		t.Errorf("IN+WT pattern = %q", got)
	}
	var wt [tile.NumKinds]bool
	wt[tile.Wt] = true
	if got := reusePattern(wt); got != "WT" {
		t.Errorf("WT pattern = %q", got)
	}
}

func TestReusePatternsCoverAllSets(t *testing.T) {
	_, r := schedulePressure(t)
	counts := ReusePatterns(r)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(r.Sets) {
		t.Errorf("patterns cover %d sets, schedule has %d", total, len(r.Sets))
	}
	if DistinctPatterns(r) < 1 {
		t.Errorf("OoO schedule under pressure shows %d reuse patterns, want >= 1", DistinctPatterns(r))
	}
}

func TestSortedPatterns(t *testing.T) {
	counts := map[string]int{"WT": 5, "IN": 5, "none": 10, "IN+WT": 1}
	got := SortedPatterns(counts)
	want := []string{"none", "IN", "WT", "IN+WT"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedPatterns = %v, want %v", got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.0 KiB",
		1536:            "1.5 KiB",
		3 * 1024 * 1024: "3.0 MiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
