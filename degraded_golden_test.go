package flexer_test

import (
	"fmt"
	"strings"
	"testing"

	flexer "github.com/flexer-sched/flexer"
)

// Degraded schedules pinned: the per-layer repaired cycles and traffic
// of the repository benchmark's fault job, and of one network whose
// fused segments are repaired too, compared exactly. sched.Repair
// re-executes the nominal schedule's committed sets and resumes the run
// loop from that state, so a change to what re-execution leaves on the
// machine — or to how the loop resumes from it — shows here first.
func TestDegradedSchedulesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, network, machine, plan string
		fuse                         int
		want                         string
	}{
		{"fault-job", "squeezenet", "arch1", "core1@2000,dma@1000-6000x1.5", 0, goldenDegradedFaultJob},
		{"fused-repair", "squeezenet", "arch4", "core1@300", 2, goldenDegradedFused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := flexer.NetworkByName(tc.network)
			if err != nil {
				t.Fatal(err)
			}
			a, err := flexer.Preset(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := flexer.ParseFaultPlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			nr, err := flexer.SearchNetwork(n.Scale(8), flexer.Options{
				Arch: a, Budget: flexer.QuickBudget(), Workers: 1, FaultPlan: plan, FuseDepth: tc.fuse,
			})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, lr := range nr.Layers {
				fmt.Fprintf(&b, "%s %d/%d\n", lr.Layer.Name, lr.Degraded.LatencyCycles, lr.Degraded.TrafficBytes())
			}
			for _, s := range nr.Segments {
				fmt.Fprintf(&b, "segment %d..%d %d/%d\n", s.First, s.Last, s.Degraded.LatencyCycles, s.Degraded.TrafficBytes())
			}
			if tc.fuse > 0 && len(nr.Segments) == 0 {
				t.Fatal("no fused segment was accepted: the case pins nothing fused")
			}
			if got := b.String(); got != tc.want {
				t.Errorf("degraded schedules changed:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

const goldenDegradedFaultJob = `conv1 3158/29624
fire2_squeeze 476/7808
fire2_expand1x1 476/7808
fire2_expand3x3 1420/24576
fire3_squeeze 748/14464
fire3_expand1x1 476/7808
fire3_expand3x3 1420/24576
fire4_squeeze 542/11072
fire4_expand1x1 542/11072
fire4_expand3x3 5181/76992
fire5_squeeze 906/21568
fire5_expand1x1 542/11072
fire5_expand3x3 5181/76992
fire6_squeeze 963/25184
fire6_expand1x1 763/18912
fire6_expand3x3 10534/172704
fire7_squeeze 3001/37728
fire7_expand1x1 763/18912
fire7_expand3x3 10534/172704
fire8_squeeze 3578/50048
fire8_expand1x1 2790/33408
fire8_expand3x3 13913/301440
fire9_squeeze 4366/66688
fire9_expand1x1 2790/33408
fire9_expand3x3 13913/301440
conv10 35579/1027024
`

const goldenDegradedFused = `conv1 2325/29624
fire2_squeeze 354/7808
fire2_expand1x1 354/7808
fire2_expand3x3 1552/24576
fire3_squeeze 917/14464
fire3_expand1x1 354/7808
fire3_expand3x3 1552/24576
fire4_squeeze 369/11072
fire4_expand1x1 369/11072
fire4_expand3x3 2059/76992
fire5_squeeze 869/21568
fire5_expand1x1 369/11072
fire5_expand3x3 2059/76992
fire6_squeeze 870/25184
fire6_expand1x1 768/18912
fire6_expand3x3 4161/170784
fire7_squeeze 1074/37728
fire7_expand1x1 768/18912
fire7_expand3x3 4161/170784
fire8_squeeze 1266/50048
fire8_expand1x1 998/33408
fire8_expand3x3 6916/304000
fire9_squeeze 1534/66688
fire9_expand1x1 998/33408
fire9_expand3x3 6916/304000
conv10 17152/1027024
segment 1..2 645/13312
segment 4..5 1217/19968
segment 7..8 691/20992
segment 10..11 1191/31488
segment 13..14 1303/43904
segment 16..17 1507/56448
segment 19..20 1929/83200
segment 22..23 2197/99840
`

// TestDegradedFusedGatherVerifies: a repaired fused segment gathers
// inside a DMA derate window, and the fusion pass verifies every
// repaired segment. The verifier must price a derated gather as the
// scheduler does, as an on-chip copy (GatherCycles) and not as an
// off-chip transfer; when it did not, this search failed with
// "degraded fused segment fire5_squeeze..fire5_expand1x1 fails
// verification".
func TestDegradedFusedGatherVerifies(t *testing.T) {
	n, err := flexer.NetworkByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	a, err := flexer.Preset("arch1")
	if err != nil {
		t.Fatal(err)
	}
	const from, to = 1000, 6000
	plan, err := flexer.ParseFaultPlan(fmt.Sprintf("core1@2000,dma@%d-%dx1.5", from, to))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := flexer.SearchNetwork(n.Scale(8), flexer.Options{
		Arch: a, Budget: flexer.QuickBudget(), Workers: 1, FaultPlan: plan, FuseDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range nr.Segments {
		for _, m := range s.Degraded.MemRecords {
			if m.Kind.String() == "gather" && m.Start >= from && m.Start < to {
				return
			}
		}
	}
	t.Fatal("no repaired fused segment gathers inside the derate window: the case checks nothing")
}
