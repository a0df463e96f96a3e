package search

import (
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
)

// fusePairNet is a two-layer network with the shapes of scaled VGG-16's
// conv4_1 -> conv4_2 boundary, where the fusion pass finds a profitable
// segment on arch5 under the quick budget: the second layer's tiles
// start on cores idled by the first layer's drain and consume its
// outputs on-chip.
func fusePairNet() nets.Network {
	return nets.Network{Name: "fusepair", Layers: []layer.Conv{
		layer.NewConv("p", 7, 7, 256, 512, 3),
		layer.NewConv("c", 7, 7, 512, 512, 3),
	}}
}

func fuseOpts(t *testing.T) Options {
	t.Helper()
	a, err := arch.Preset("arch5")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Arch: a, Budget: QuickBudget()}
}

// TestFuseNetworkFindsSegment runs the fusion pass on a boundary known
// to be profitable and checks the accepted segment strictly beats the
// layerwise schedules on both cycles and off-chip traffic, that the
// boundary decision is recorded, and that Totals switches to the fused
// schedule.
func TestFuseNetworkFindsSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-network searches in -short mode")
	}
	n := fusePairNet()
	base := fuseOpts(t)
	nr0, err := SearchNetwork(n, base)
	if err != nil {
		t.Fatal(err)
	}
	if nr0.FuseDepth != 0 || len(nr0.Segments) != 0 || len(nr0.Boundaries) != 0 {
		t.Fatalf("layerwise search produced fusion state: depth=%d segments=%d boundaries=%d",
			nr0.FuseDepth, len(nr0.Segments), len(nr0.Boundaries))
	}
	l0, _, t0, _ := nr0.Totals()
	var sumLat, sumTraffic int64
	for _, lr := range nr0.Layers {
		sumLat += lr.BestOoO.LatencyCycles
		sumTraffic += lr.BestOoO.TrafficBytes()
	}
	if l0 != sumLat || t0 != sumTraffic {
		t.Errorf("layerwise totals %d/%d differ from per-layer sums %d/%d", l0, t0, sumLat, sumTraffic)
	}

	fopts := base
	fopts.FuseDepth = 1
	nr1, err := SearchNetwork(n, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if nr1.FuseDepth != 1 {
		t.Errorf("FuseDepth not echoed: %d", nr1.FuseDepth)
	}
	if len(nr1.Segments) != 1 {
		t.Fatalf("expected 1 fused segment, got %d (boundaries: %+v)", len(nr1.Segments), nr1.Boundaries)
	}
	seg := nr1.Segments[0]
	if seg.First != 0 || seg.Last != 1 || len(seg.Factors) != 2 {
		t.Errorf("segment covers [%d..%d] with %d tilings, want [0..1] with 2", seg.First, seg.Last, len(seg.Factors))
	}
	if seg.LayerwiseCycles != sumLat || seg.LayerwiseTraffic != sumTraffic {
		t.Errorf("segment layerwise reference %d/%d, want %d/%d",
			seg.LayerwiseCycles, seg.LayerwiseTraffic, sumLat, sumTraffic)
	}
	if cycleWin, trafficWin := seg.LayerwiseCycles-seg.Result.LatencyCycles, seg.LayerwiseTraffic-seg.Result.TrafficBytes(); cycleWin <= 0 || trafficWin <= 0 {
		t.Errorf("accepted segment without a strict win: cycles %d traffic %d", cycleWin, trafficWin)
	}
	if seg.Result.GatherBytes <= 0 {
		t.Errorf("fused segment moved no bytes on-chip: GatherBytes=%d", seg.Result.GatherBytes)
	}
	if len(nr1.Boundaries) != 1 || !nr1.Boundaries[0].Fused ||
		nr1.Boundaries[0].Producer != "p" || nr1.Boundaries[0].Consumer != "c" {
		t.Errorf("boundary decision wrong: %+v", nr1.Boundaries)
	}
	l1, s1, t1, st1 := nr1.Totals()
	if l1 != seg.Result.LatencyCycles || t1 != seg.Result.TrafficBytes() {
		t.Errorf("totals %d/%d do not use the fused schedule %d/%d",
			l1, t1, seg.Result.LatencyCycles, seg.Result.TrafficBytes())
	}
	if l1 >= l0 || t1 >= t0 {
		t.Errorf("fused totals %d cycles / %d bytes not strictly below layerwise %d / %d", l1, t1, l0, t0)
	}
	_, s0, _, st0 := nr0.Totals()
	if s1 != s0 || st1 != st0 {
		t.Errorf("fusion changed the static baseline: %d/%d vs %d/%d", s1, st1, s0, st0)
	}
}

// TestFuseNetworkRecordsMismatch checks a shape-incompatible boundary
// is left layerwise with the CheckFusable reason recorded.
func TestFuseNetworkRecordsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-network searches in -short mode")
	}
	n := nets.Network{Name: "mismatch", Layers: []layer.Conv{
		layer.NewConv("p", 8, 8, 16, 16, 3),
		layer.NewConv("c", 8, 8, 32, 16, 3), // consumer wants 32 channels, producer makes 16
	}}
	opts := fuseOpts(t)
	opts.FuseDepth = 1
	nr, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 0 {
		t.Fatalf("fused across a channel mismatch: %+v", nr.Segments[0])
	}
	if len(nr.Boundaries) != 1 || nr.Boundaries[0].Fused {
		t.Fatalf("boundary decisions wrong: %+v", nr.Boundaries)
	}
	if r := nr.Boundaries[0].Reason; !strings.Contains(r, "does not feed") {
		t.Errorf("mismatch reason does not name the shape mismatch: %q", r)
	}
	oooLat, _, _, _ := nr.Totals()
	var sum int64
	for _, lr := range nr.Layers {
		sum += lr.BestOoO.LatencyCycles
	}
	if oooLat != sum {
		t.Errorf("unfused totals %d differ from layerwise sum %d", oooLat, sum)
	}
}

// TestFuseNetworkDegraded runs the fusion pass with a fault plan and
// checks the accepted segment carries a verified degraded schedule that
// DegradedCycles uses.
func TestFuseNetworkDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-network searches in -short mode")
	}
	n := fusePairNet()
	opts := fuseOpts(t)
	opts.FuseDepth = 1
	opts.FaultPlan = &fault.Plan{CoreDown: []fault.CoreDown{{Core: opts.Arch.Cores - 1, Cycle: 1 << 16}}}
	nr, err := SearchNetwork(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 1 {
		t.Fatalf("expected 1 fused segment, got %d (boundaries: %+v)", len(nr.Segments), nr.Boundaries)
	}
	seg := nr.Segments[0]
	if seg.Degraded == nil {
		t.Fatal("fused segment has no degraded schedule despite a fault plan")
	}
	if seg.Degraded.LatencyCycles < seg.Result.LatencyCycles {
		t.Errorf("degraded fused schedule (%d cycles) faster than nominal (%d)",
			seg.Degraded.LatencyCycles, seg.Result.LatencyCycles)
	}
	if got := nr.DegradedCycles(); got != seg.Degraded.LatencyCycles {
		t.Errorf("DegradedCycles()=%d, want the segment's %d", got, seg.Degraded.LatencyCycles)
	}
}

// TestFuseDepthKeysNetworksOnly checks the fuse depth splits network
// keys, whose sweeps run the fusion pass, and not layer keys: the pass
// runs on top of the layer results, so fused and layerwise sweeps share
// them.
func TestFuseDepthKeysNetworksOnly(t *testing.T) {
	l := layer.NewConv("k", 8, 8, 16, 16, 3)
	opts := fuseOpts(t)
	layerKeys, netKeys := map[string]bool{}, map[string]bool{}
	for depth := 0; depth <= 2; depth++ {
		opts.FuseDepth = depth
		layerKeys[CacheKey(l, opts)] = true
		netKeys[NetworkKey("vgg16", 4, opts)] = true
	}
	if len(layerKeys) != 1 {
		t.Errorf("fuse depths 0, 1 and 2 give %d layer keys, want 1: %v", len(layerKeys), layerKeys)
	}
	if len(netKeys) != 3 {
		t.Errorf("fuse depths 0, 1 and 2 give %d network keys, want 3: %v", len(netKeys), netKeys)
	}
}
