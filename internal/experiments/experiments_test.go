package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/flexer-sched/flexer/internal/search"
)

// runRegime runs every experiment of the quick regime — scale 4, quick
// budget, what `make bench-guard` re-runs — into a fresh record.
func runRegime(t *testing.T, workers int) *Record {
	t.Helper()
	cfg := Config{Scale: 4, Budget: "quick", Workers: workers, Cache: search.NewCache()}
	rec := &Record{SchemaVersion: SchemaVersion}
	for _, name := range Names() {
		table, err := Run(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec.Put(table)
	}
	return rec
}

var quick struct {
	once sync.Once
	rec  *Record
}

// quickRecord returns the quick regime at one worker, run once and
// shared by the tests of this package.
func quickRecord(t *testing.T) *Record {
	t.Helper()
	quick.once.Do(func() { quick.rec = runRegime(t, 1) })
	if quick.rec == nil {
		t.Fatal("the quick regime did not run")
	}
	return quick.rec
}

// quickRows returns one experiment's rows of quickRecord.
func quickRows[T any](t *testing.T, name string) []T {
	t.Helper()
	table, ok := quickRecord(t).table(name + " scale=4 budget=quick")
	if !ok {
		t.Fatalf("no table for %s", name)
	}
	return table.Rows.([]T)
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("experiment %q registered twice", name)
		}
		seen[name] = true
	}
	if _, err := Run("no-such-experiment", Config{Budget: "quick"}); err == nil {
		t.Error("unknown experiment did not error")
	}
	if _, err := Run("fig9b", Config{Scale: 4, Budget: "no-such-budget"}); err == nil {
		t.Error("unknown budget did not error")
	}
}

func TestTable1(t *testing.T) {
	rows := quickRows[archRow](t, "table1")
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	if rows[0] != (archRow{"arch1", 2, 256, 32}) {
		t.Errorf("arch1 row wrong: %+v", rows[0])
	}
	if rows[7] != (archRow{"arch8", 4, 512, 64}) {
		t.Errorf("arch8 row wrong: %+v", rows[7])
	}
}

func TestFig1(t *testing.T) {
	layers := map[string]struct{ ooo, static int }{}
	for _, p := range quickRows[pointRow](t, "fig1") {
		e := layers[p.Layer]
		if p.Kind == "ooo" {
			e.ooo++
		} else {
			e.static++
		}
		layers[p.Layer] = e
		if p.Cycles <= 0 || p.Bytes <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	if len(layers) != 2 {
		t.Fatalf("points cover %d layers, want 2", len(layers))
	}
	for name, e := range layers {
		if e.ooo < 1 || e.static != 1 {
			t.Errorf("%s: %d ooo points, %d static points", name, e.ooo, e.static)
		}
	}
}

// TestFig8Subset checks the grid's shape, that no schedule is below its
// cell's floors and, on the VGG16 rows, that the counted fields are
// consistent with the totals.
func TestFig8Subset(t *testing.T) {
	rows := quickRows[floorCell](t, "fig8")
	if len(rows) != 32 {
		t.Fatalf("%d rows, want 4 networks x 8 archs", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Reduction <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.FloorCycles <= 0 || r.FloorCycles > min(r.OoOCycles, r.StaticCycles) ||
			r.FloorBytes <= 0 || r.FloorBytes > min(r.OoOBytes, r.StaticBytes) {
			t.Errorf("%s/%s: floors %d cycles / %d bytes against OoO %d / %d and static %d / %d",
				r.Network, r.Arch, r.FloorCycles, r.FloorBytes, r.OoOCycles, r.OoOBytes, r.StaticCycles, r.StaticBytes)
		}
		// The OoO scheduler searches a superset of orders; end to end
		// it must not lose badly to the static baseline.
		if r.Speedup < 0.9 {
			t.Errorf("%s/%s: speedup %.3f below sanity floor", r.Network, r.Arch, r.Speedup)
		}
		if r.Network != "vgg16" {
			continue
		}
		if r.Layers != 13 || r.Enumerated != 4*13 {
			t.Errorf("vgg16/%s: %d layers, %d tilings enumerated", r.Arch, r.Layers, r.Enumerated)
		}
		if r.LoseScore > r.Layers || r.LoseCycles > r.Layers || r.LoseBytes > r.Layers {
			t.Errorf("vgg16/%s: verdict counts exceed the layer count: %+v", r.Arch, r)
		}
		if r.OoOCycles > r.StaticCycles && r.LoseCycles == 0 {
			t.Errorf("vgg16/%s: loses end to end on cycles but on no layer", r.Arch)
		}
	}
}

// TestFig9a checks that the per-layer rows are the Figure 8 cell they
// come from, taken apart.
func TestFig9a(t *testing.T) {
	rows := quickRows[layerRow](t, "fig9a")
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13 VGG16 layers", len(rows))
	}
	var sum floorCell
	for _, r := range rows {
		if r.Speedup <= 0 || r.Reduction <= 0 || r.Tiling == "" || r.StaticOrder == "" {
			t.Errorf("degenerate row %+v", r)
		}
		sum.OoOCycles += r.OoOCycles
		sum.StaticBytes += r.StaticBytes
		sum.Aborted += r.Aborted
		sum.FloorCycles += r.FloorCycles
		sum.FloorBytes += r.FloorBytes
	}
	for _, c := range quickRows[floorCell](t, "fig8") {
		if c.Network == "vgg16" && c.Arch == "arch5" &&
			(c.OoOCycles != sum.OoOCycles || c.StaticBytes != sum.StaticBytes || c.Aborted != sum.Aborted || c.floors != sum.floors) {
			t.Errorf("layers sum to %d cycles / %d static bytes / %d aborted / floors %+v, the cell says %d / %d / %d / %+v",
				sum.OoOCycles, sum.StaticBytes, sum.Aborted, sum.floors, c.OoOCycles, c.StaticBytes, c.Aborted, c.floors)
		}
	}
}

func TestFig9bAnd9c(t *testing.T) {
	rows := quickRows[metricRow](t, "fig9b")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	end := quickRows[metricRow](t, "fig9c")
	if len(end) != 1 {
		t.Fatalf("%d end-to-end rows, want 1", len(end))
	}
	for _, r := range append(rows, end...) {
		if r.Speedup <= 0 || r.LeanSpeedup <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		// The transfer-weighted metric must reduce traffic at least as
		// much as the default metric does.
		if r.LeanBytes > r.OoOBytes {
			t.Errorf("%s: min-transfer moves %d bytes, the default metric %d", r.Workload, r.LeanBytes, r.OoOBytes)
		}
	}
}

func TestFig10(t *testing.T) {
	rows := quickRows[moveRow](t, "fig10")
	// 2 layers x 3 schedules x 3 kinds.
	if len(rows) != 18 {
		t.Fatalf("%d rows, want 18", len(rows))
	}
	byKey := map[string]moveRow{}
	for _, r := range rows {
		byKey[r.Layer+"/"+r.Schedule+"/"+r.Kind] = r
		if r.Schedule == "on-chip" && r.MaxMoves != 1 {
			t.Errorf("on-chip ideal moves tiles %d times", r.MaxMoves)
		}
	}
	// The OoO schedule moves at least as much data as the on-chip
	// ideal of its own tiling (the static bar may use a different
	// tiling, so it is not bounded by this particular ideal).
	for _, layer := range []string{"vgg16/conv4_2", "resnet50/conv_3_1_1"} {
		for _, kind := range []string{"IN", "WT"} {
			ideal := byKey[layer+"/on-chip/"+kind].Bytes
			if got := byKey[layer+"/flexer/"+kind].Bytes; got < ideal || ideal == 0 {
				t.Errorf("%s flexer %s: %d bytes against an ideal of %d", layer, kind, got, ideal)
			}
		}
	}
}

func TestFig11(t *testing.T) {
	schedules := map[string]int{}
	for _, r := range quickRows[reuseRow](t, "fig11") {
		schedules[r.Schedule] += r.Sets
		if r.Sets <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if schedules["static"] == 0 || schedules["flexer"] == 0 {
		t.Fatalf("missing schedules: %v", schedules)
	}
}

// TestFig12Subset checks every (network, arch) group of the ablation:
// all variants present, the default first and normalized to 1.
func TestFig12Subset(t *testing.T) {
	rows := quickRows[variantRow](t, "fig12")
	if len(rows) != 4*len(fig12Variants) {
		t.Fatalf("%d rows, want %d", len(rows), 4*len(fig12Variants))
	}
	for i, r := range rows {
		if r.Normalized <= 0 || r.Variant != fig12Variants[i%len(fig12Variants)].name {
			t.Errorf("row %d: %+v", i, r)
		}
		if r.Variant == "default" && r.Normalized != 1 {
			t.Errorf("default not normalized to 1.0: %+v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	rows := quickRows[onOffRow](t, "ablations")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.OnCycles <= 0 || r.OffCycles <= 0 || r.OffVsOn <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !strings.HasPrefix(rows[0].Variant, "dataflow-pruning") || rows[0].OffSets <= rows[0].OnSets {
		t.Errorf("switching dataflow-map pruning off did not raise the sets evaluated: %+v", rows[0])
	}
}

func TestBandwidthSweep(t *testing.T) {
	rows := quickRows[bandwidthRow](t, "bandwidth")
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for i, r := range rows {
		if r.Speedup <= 0 || r.Reduction <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if i > 0 && r.BW <= rows[i-1].BW {
			t.Error("bandwidths not increasing")
		}
	}
}

func TestEnergyEstimate(t *testing.T) {
	rows := quickRows[energyRow](t, "energy")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.OoONJ <= 0 || r.StaticNJ <= 0 || r.Saving <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestChainDepthComparison(t *testing.T) {
	rows := quickRows[onOffRow](t, "chain")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.OnCycles <= 0 || r.OffCycles <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		// The fixed rule must never beat the memory-aware priority by
		// a wide margin (it ignores the scratchpad entirely).
		if r.OffVsOn < 0.8 {
			t.Errorf("%s: chain-depth rule beat memory-aware priority by %0.3f", r.Workload, r.OffVsOn)
		}
	}
}

// TestFusionInvariant checks the rule the fusion experiment enforces
// where it measures: in the quick regime the pass accepts a segment, so
// the fused totals are strictly below the layerwise ones on both axes;
// equal totals pass only when no segment was accepted.
func TestFusionInvariant(t *testing.T) {
	rows := quickRows[fusionRow](t, "fusion")
	if len(rows) != 2 || rows[0].FuseDepth != 0 || rows[1].FuseDepth != 1 || rows[1].Segments == 0 {
		t.Fatalf("want a layerwise and a fused row with a segment: %+v", rows)
	}
	if err := checkFused(rows[0], rows[1]); err != nil {
		t.Errorf("measured rows: %v", err)
	}
	layerwise := fusionRow{cell: cell{versus: versus{OoOCycles: 1000, OoOBytes: 5000}}}
	fused := func(segments int, cycles, bytes int64) fusionRow {
		return fusionRow{FuseDepth: 1, Segments: segments, cell: cell{versus: versus{OoOCycles: cycles, OoOBytes: bytes}}}
	}
	for _, ok := range []fusionRow{fused(1, 900, 4500), fused(0, 1000, 5000)} {
		if err := checkFused(layerwise, ok); err != nil {
			t.Errorf("%d segments, %d cycles, %d bytes failed: %v", ok.Segments, ok.OoOCycles, ok.OoOBytes, err)
		}
	}
	for _, bad := range []fusionRow{
		fused(1, 1000, 4500), // no strict cycle win
		fused(1, 900, 5000),  // no strict traffic win
		fused(1, 1000, 5000), // a segment that bought nothing
		fused(0, 900, 4500),  // a win out of nowhere
		fused(0, 1001, 5000), // the pass made it worse
	} {
		if checkFused(layerwise, bad) == nil {
			t.Errorf("%d segments, %d cycles, %d bytes passed", bad.Segments, bad.OoOCycles, bad.OoOBytes)
		}
	}
}

// TestMeasureNetworkSmoke measures the smallest network end to end and
// sanity-checks the cell.
func TestMeasureNetworkSmoke(t *testing.T) {
	c, nr, err := Config{Scale: 4, Budget: "quick", Cache: search.NewCache()}.measureNetwork("squeezenet", "arch5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.OoOCycles <= 0 || c.StaticCycles <= 0 || c.Layers == 0 || c.Layers != len(nr.Layers) {
		t.Errorf("implausible cell: %+v", c)
	}
	if c.Enumerated <= 0 || c.Sets <= 0 {
		t.Errorf("no effort counted: %+v", c)
	}
}

// TestRender checks the one renderer on a table with every cell kind:
// text left-aligned, numbers right-aligned, ratios at three decimals,
// embedded structs flattened in field order.
func TestRender(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, Table{Name: "bandwidth", Scale: 2, Budget: "quick", Title: "T", Rows: []bandwidthRow{
		{8, versusOf(10, 200, 25, 100)},
		{128, versusOf(1000, 2, 1, 3)},
	}})
	want := "T [scale 2, quick budget]\n" +
		"bw_bytes_per_cycle  ooo_cycles  ooo_bytes  static_cycles  static_bytes  speedup  reduction\n" +
		"                 8          10        200             25           100    2.500      0.500\n" +
		"               128        1000          2              1             3    0.001      1.500\n"
	if buf.String() != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", buf.String(), want)
	}
	buf.Reset()
	Render(&buf, Table{Title: "T", Scale: 1, Budget: "default", Rows: []reuseRow{{"conv4_2", "static", "IN+WT", 70}}})
	if want := "T [scale 1, default budget]\nlayer    schedule  pattern  sets\nconv4_2  static    IN+WT      70\n"; buf.String() != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", buf.String(), want)
	}
}
