package flexer_test

import (
	"fmt"
	"strings"
	"testing"

	flexer "github.com/flexer-sched/flexer"
)

// Degraded schedules pinned: the per-layer repaired cycles and traffic
// of the repository benchmark's fault job, and of one network whose
// fused segments are repaired too, captured before the scheduler's
// per-tile state moved from tile.ID-keyed maps to slices by tile
// number and compared exactly. sched.Repair rebuilds that state by
// hand, so a slip in its translation shows here first.
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
fire4_expand3x3 6539/151296
fire5_squeeze 906/21568
fire5_expand1x1 542/11072
fire5_expand3x3 6539/151296
fire6_squeeze 963/25184
fire6_expand1x1 763/18912
fire6_expand3x3 14794/338976
fire7_squeeze 3241/75360
fire7_expand1x1 763/18912
fire7_expand3x3 14794/338976
fire8_squeeze 4202/99968
fire8_expand1x1 2882/66304
fire8_expand3x3 14101/375456
fire9_squeeze 5510/133248
fire9_expand1x1 2882/66304
fire9_expand3x3 14101/375456
conv10 37879/1131128
`

const goldenDegradedFused = `conv1 2325/29624
fire2_squeeze 354/7808
fire2_expand1x1 354/7808
fire2_expand3x3 1616/43776
fire3_squeeze 921/27776
fire3_expand1x1 354/7808
fire3_expand3x3 1616/43776
fire4_squeeze 369/11072
fire4_expand1x1 369/11072
fire4_expand3x3 2984/151296
fire5_squeeze 961/42560
fire5_expand1x1 369/11072
fire5_expand3x3 2984/151296
fire6_squeeze 1026/50272
fire6_expand1x1 822/37440
fire6_expand3x3 6531/337536
fire7_squeeze 1426/75360
fire7_expand1x1 822/37440
fire7_expand3x3 6531/337536
fire8_squeeze 1810/99968
fire8_expand1x1 1276/66304
fire8_expand3x3 11296/599424
fire9_squeeze 2338/133248
fire9_expand1x1 1276/66304
fire9_expand3x3 11296/599424
conv10 18543/1131128
segment 1..2 645/13312
segment 4..5 1221/33280
segment 7..8 691/20992
segment 10..11 1283/52480
segment 13..14 1459/68992
segment 16..17 1859/94080
segment 19..20 2473/133120
segment 22..23 3001/166400
`
