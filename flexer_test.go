package flexer_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	flexer "github.com/flexer-sched/flexer"
)

func arch1(t *testing.T) flexer.Arch {
	t.Helper()
	cfg, err := flexer.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestPresets(t *testing.T) {
	if len(flexer.Presets()) != 8 {
		t.Fatalf("%d presets, want 8", len(flexer.Presets()))
	}
	if _, err := flexer.Preset("archX"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	custom := flexer.NewArch("mine", 3, 128<<10, 48)
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	if custom.Cores != 3 || custom.PERows != 32 {
		t.Fatalf("custom arch wrong: %+v", custom)
	}
}

func TestNetworks(t *testing.T) {
	ns := flexer.Networks()
	if len(ns) != 4 {
		t.Fatalf("%d networks, want 4", len(ns))
	}
	for _, n := range ns {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
	if _, err := flexer.NetworkByName("alexnet"); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestDataflows(t *testing.T) {
	if len(flexer.Dataflows()) != 6 {
		t.Fatalf("%d canonical dataflows, want 6", len(flexer.Dataflows()))
	}
	if len(flexer.AllDataflows()) != 24 {
		t.Fatalf("%d dataflows, want 24", len(flexer.AllDataflows()))
	}
}

func TestTilings(t *testing.T) {
	cfg := arch1(t)
	l := flexer.NewConv("l", 28, 28, 64, 64, 3)
	ts := flexer.Tilings(l, cfg, flexer.QuickBudget())
	if len(ts) == 0 {
		t.Fatal("no tilings")
	}

	// A layer whose tilings all exceed the budget's op cap: the search
	// relaxes the cap until some tiling fits, and Tilings lists those.
	vgg, err := flexer.NetworkByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	arch5, err := flexer.Preset("arch5")
	if err != nil {
		t.Fatal(err)
	}
	conv22, err := vgg.Layer("conv2_2")
	if err != nil {
		t.Fatal(err)
	}
	lr, err := flexer.SearchLayer(conv22, flexer.Options{Arch: arch5, Budget: flexer.QuickBudget(), DisableDominance: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := flexer.Tilings(conv22, arch5, flexer.QuickBudget()); len(got) != lr.CandidatesEnumerated || len(got) == 0 {
		t.Errorf("Tilings(%s, arch5, quick) lists %d tilings, SearchLayer enumerates %d", conv22.Name, len(got), lr.CandidatesEnumerated)
	}
}

func TestScheduleLayerAndStatic(t *testing.T) {
	cfg := arch1(t)
	l := flexer.NewConv("l", 14, 14, 64, 64, 3)
	ts := flexer.Tilings(l, cfg, flexer.QuickBudget())
	if len(ts) == 0 {
		t.Fatal("no tilings")
	}
	opts := flexer.Options{Arch: cfg, Budget: flexer.QuickBudget()}
	ooo, err := flexer.ScheduleLayer(l, ts[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if ooo.LatencyCycles <= 0 || ooo.TrafficBytes() <= 0 {
		t.Fatalf("degenerate OoO schedule: %+v", ooo)
	}
	static, err := flexer.ScheduleStatic(l, ts[0], flexer.Dataflows()[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if static.LatencyCycles <= 0 {
		t.Fatalf("degenerate static schedule: %+v", static)
	}
}

func TestSearchLayerFacade(t *testing.T) {
	cfg := arch1(t)
	l := flexer.NewConv("l", 28, 28, 64, 128, 3)
	lr, err := flexer.SearchLayer(l, flexer.Options{Arch: cfg, Budget: flexer.QuickBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if lr.BestOoO == nil || lr.BestStatic == nil {
		t.Fatal("missing schedules")
	}
	t.Logf("speedup=%.3f reduction=%.3f", lr.Speedup(), lr.TrafficReduction())
}

func TestSearchNetworkFacade(t *testing.T) {
	cfg := arch1(t)
	n, err := flexer.NetworkByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	n = n.Scale(8)
	n.Layers = n.Layers[:4]
	nr, err := flexer.SearchNetwork(n, flexer.Options{
		Arch: cfg, Budget: flexer.QuickBudget(), Cache: flexer.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if nr.Speedup() <= 0 {
		t.Fatalf("degenerate result: %+v", nr)
	}
}

func TestPolicyAndPriorityOptions(t *testing.T) {
	cfg := arch1(t)
	l := flexer.NewConv("l", 14, 14, 128, 128, 3)
	for _, p := range []flexer.Priority{flexer.PriorityDefault, flexer.PriorityMinTransfer, flexer.PriorityMinSpill} {
		for _, m := range []flexer.MemPolicy{flexer.MemPolicyFlexer, flexer.MemPolicyFirstFit, flexer.MemPolicySmallestFirst} {
			lr, err := flexer.SearchLayer(l, flexer.Options{
				Arch: cfg, Budget: flexer.QuickBudget(), Priority: p, MemPolicy: m,
			})
			if err != nil {
				t.Fatalf("priority %v, policy %v: %v", p, m, err)
			}
			if lr.BestOoO.LatencyCycles <= 0 {
				t.Errorf("priority %v, policy %v: degenerate", p, m)
			}
		}
	}
}

// TestOptionNames checks the names commands take options by: each
// list round-trips through its parse function, and chain-depth — which
// the flexer CLI once rejected while the daemon accepted it — is one.
func TestOptionNames(t *testing.T) {
	if p, err := flexer.ParsePriority("chain-depth"); err != nil || p != flexer.PriorityChainDepth {
		t.Errorf("ParsePriority(chain-depth) = %v, %v", p, err)
	}
	for _, name := range flexer.PriorityNames() {
		if p, err := flexer.ParsePriority(name); err != nil || p.String() != name {
			t.Errorf("ParsePriority(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range flexer.MemPolicyNames() {
		if p, err := flexer.ParseMemPolicy(name); err != nil || p.String() != name {
			t.Errorf("ParseMemPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if m, err := flexer.ParseMetric("min-transfer"); err != nil || m != flexer.MetricMinTransfer() {
		t.Errorf("ParseMetric(min-transfer) = %v, %v", m, err)
	}
	if b, err := flexer.BudgetByName("quick"); err != nil || b.MaxTilings != flexer.QuickBudget().MaxTilings {
		t.Errorf("BudgetByName(quick) = %+v, %v", b, err)
	}
	for _, name := range append(flexer.MetricNames(), flexer.BudgetNames()...) {
		_, merr := flexer.ParseMetric(name)
		_, berr := flexer.BudgetByName(name)
		if merr != nil && berr != nil {
			t.Errorf("%q is listed but parses as neither a metric nor a budget", name)
		}
	}
	if _, err := flexer.BudgetByName("lavish"); err == nil {
		t.Error("BudgetByName accepted an unknown name")
	}
}

func TestExportFormats(t *testing.T) {
	cfg := arch1(t)
	l := flexer.NewConv("l", 14, 14, 64, 64, 3)
	lr, err := flexer.SearchLayer(l, flexer.Options{Arch: cfg, Budget: flexer.QuickBudget()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flexer.WriteJSON(&buf, lr.BestOoO, false); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON output")
	}
	buf.Reset()
	if err := flexer.WriteCSV(&buf, lr.BestOoO); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "kind,unit,what,bytes,start,end") {
		t.Fatalf("unexpected CSV header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestMetrics(t *testing.T) {
	if flexer.MetricDefault().Score(3, 4) != 12 {
		t.Error("default metric wrong")
	}
	// The min-transfer metric must prefer a tenth of the traffic even
	// at a hundred times the latency.
	mt := flexer.MetricMinTransfer()
	if mt.Score(100, 10) >= mt.Score(1, 100) {
		t.Errorf("min-transfer metric does not prioritize traffic: %f vs %f",
			mt.Score(100, 10), mt.Score(1, 100))
	}
}

// TestRepairScheduleRejectsForeignSchedule: RepairSchedule re-plans the
// schedule it is handed on the graph of the layer it is handed. Given a
// schedule of another layer it must not return a "repair" mixing the
// two tilings (more op records than the schedule had ops), but fail and
// say why; so must a schedule that moves a
// tile the layer's grid does not have, and one of the same layer and
// tiling built under another spill policy.
func TestRepairScheduleRejectsForeignSchedule(t *testing.T) {
	opts := flexer.Options{Arch: arch1(t), Budget: flexer.QuickBudget()}
	f := flexer.Factors{OH: 7, OW: 7, OC: 32, IC: 32}
	small := flexer.NewConv("small", 14, 14, 64, 64, 3)
	big := flexer.NewConv("big", 28, 28, 64, 128, 3)
	s, err := flexer.ScheduleLayer(small, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := flexer.ParseFaultPlan(fmt.Sprintf("core1@%d", s.LatencyCycles/2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flexer.RepairSchedule(small, s, plan, opts); err != nil {
		t.Fatalf("repair on the schedule's own layer: %v", err)
	}
	if r, err := flexer.RepairSchedule(big, s, plan, opts); err == nil {
		t.Errorf("a %d-op schedule of %s was repaired as %s: %d op records, no error", len(s.OpRecords), small.Name, big.Name, len(r.OpRecords))
	} else if !strings.Contains(err.Error(), "repair") {
		t.Errorf("error does not say what failed: %v", err)
	}
	// The same layer and tiling under another spill policy: re-executed
	// under opts' policy, its sets spill other tiles.
	other := opts
	other.MemPolicy = flexer.MemPolicyFirstFit
	foreign, err := flexer.ScheduleLayer(big, f, other)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := flexer.ParseFaultPlan(fmt.Sprintf("core1@%d", foreign.LatencyCycles/2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flexer.RepairSchedule(big, foreign, mid, opts); err == nil {
		t.Errorf("a schedule built under %v was repaired under %v without an error", other.MemPolicy, opts.MemPolicy)
	}
	offGrid := *s
	offGrid.MemRecords = append(offGrid.MemRecords[:0:0], s.MemRecords...)
	offGrid.MemRecords[0].Tile.A = 99
	if _, err := flexer.RepairSchedule(small, &offGrid, plan, opts); err == nil {
		t.Errorf("a schedule moving %v, off the layer's grid, was repaired without an error", offGrid.MemRecords[0].Tile)
	}
}
