package search

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
)

var updateFusion = flag.Bool("update-fusion", false, "rewrite internal/search/testdata/fusion_decisions.txt")

// TestLookaheadKeepsBest: abandoning a run on its cycles and bytes
// floors drops only schedules that lose the final reduction. On inputs
// under scratchpad pressure — where candidates differ in traffic and
// the bytes floor decides most cutoffs — the search with cutoffs and
// the exhaustive one return the same best schedules, under the default
// metric and under min-transfer ranking with the min-transfer priority
// (a predicate scoring cycles x bytes whatever Options.Metric says
// abandons the min-transfer winner). Fused networks keep the segments
// and the boundary reasons the fusion pass recorded before the floors
// existed (testdata/fusion_decisions.txt, captured at 9df8cff): its
// cutoff is on cycles alone, so it abandons the runs it abandoned then.
func TestLookaheadKeepsBest(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive searches in -short mode")
	}
	minTransfer := func(o *Options) { o.Metric, o.Priority = MetricMinTransfer(), sched.PriorityMinTransfer }
	variants := []struct {
		name string
		tune func(*Options)
	}{{"default", func(*Options) {}}, {"min-transfer", minTransfer}}
	options := func(archName string, tune func(*Options)) (cut, exhaustive Options) {
		cut = quickOpts(t, archName)
		cut.Workers = 1
		tune(&cut)
		exhaustive = cut
		exhaustive.DisableDominance = true
		return cut, exhaustive
	}
	sameBest := func(name string, got, want *LayerResult) {
		t.Helper()
		if !reflect.DeepEqual(got.BestOoO, want.BestOoO) || !reflect.DeepEqual(got.BestStatic, want.BestStatic) ||
			got.BestStaticOrder != want.BestStaticOrder {
			t.Errorf("%s: best schedules differ from the exhaustive search's: OoO %d cycles / %d bytes (%v) vs %d / %d (%v), static %d / %d %v vs %d / %d %v",
				name, got.BestOoO.LatencyCycles, got.BestOoO.TrafficBytes(), got.BestOoO.Factors,
				want.BestOoO.LatencyCycles, want.BestOoO.TrafficBytes(), want.BestOoO.Factors,
				got.BestStatic.LatencyCycles, got.BestStatic.TrafficBytes(), got.BestStaticOrder,
				want.BestStatic.LatencyCycles, want.BestStatic.TrafficBytes(), want.BestStaticOrder)
		}
	}

	vgg2 := mustNetwork(t, "vgg16", 2)
	aborted := 0
	for _, archName := range []string{"arch5", "arch1"} {
		for _, v := range variants {
			cut, exhaustive := options(archName, v.tune)
			for _, layerName := range []string{"conv3_1", "conv4_1"} {
				l, err := vgg2.Layer(layerName)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SearchLayer(l, cut)
				if err != nil {
					t.Fatal(err)
				}
				want, err := SearchLayer(l, exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				sameBest(fmt.Sprintf("vgg16/2 %s on %s, %s", layerName, archName, v.name), got, want)
				aborted += got.SchedulesAborted
			}
		}
	}
	if aborted == 0 {
		t.Error("no run was abandoned: the layers prove nothing about the cutoff")
	}

	var decisions bytes.Buffer
	for _, c := range []struct {
		net       nets.Network
		arch      string
		fuseDepth int
		tune      func(*Options)
		golden    bool // too large to search exhaustively here: held to the golden file alone
	}{
		{net: mustNetwork(t, "vgg16", 8), arch: "arch1", tune: minTransfer},
		{net: mustNetwork(t, "squeezenet", 8), arch: "arch4", fuseDepth: 2, tune: func(*Options) {}},
		{net: mustNetwork(t, "vgg16", 4), arch: "arch5", fuseDepth: 1, tune: func(*Options) {}, golden: true},
		{net: mustNetwork(t, "vgg16", 8), arch: "arch5", fuseDepth: 2, tune: minTransfer},
	} {
		cut, exhaustive := options(c.arch, c.tune)
		cut.FuseDepth, exhaustive.FuseDepth = c.fuseDepth, c.fuseDepth
		got, err := SearchNetwork(c.net, cut)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s on %s, fuse depth %d", c.net.Name, c.arch, c.fuseDepth)
		if !c.golden {
			want, err := SearchNetwork(c.net, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Layers {
				sameBest(name+" "+got.Layers[i].Layer.Name, got.Layers[i], want.Layers[i])
			}
			if !reflect.DeepEqual(got.Segments, want.Segments) || !reflect.DeepEqual(got.Boundaries, want.Boundaries) {
				t.Errorf("%s: fusion decisions differ from the exhaustive search's", name)
			}
		}
		fmt.Fprintf(&decisions, "# %s\n", name)
		for _, s := range got.Segments {
			fmt.Fprintf(&decisions, "segment %d-%d %v: %d cycles %d bytes, layerwise %d / %d\n", s.First, s.Last, s.Factors,
				s.Result.LatencyCycles, s.Result.TrafficBytes(), s.LayerwiseCycles, s.LayerwiseTraffic)
		}
		for _, b := range got.Boundaries {
			fmt.Fprintf(&decisions, "boundary %s > %s: %s\n", b.Producer, b.Consumer, b.Reason)
		}
	}
	const path = "testdata/fusion_decisions.txt"
	if *updateFusion {
		if err := os.WriteFile(path, decisions.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decisions.Bytes(), want) {
		t.Errorf("fusion decisions changed:\n--- got\n%s--- want\n%s", decisions.Bytes(), want)
	}
}
