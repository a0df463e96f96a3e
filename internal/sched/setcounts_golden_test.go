package sched

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

var updateSetCounts = flag.Bool("update-set-counts", false, "rewrite internal/sched/testdata/set_counts.txt")

// TestSetCountsPinned pins the scheduler's work counters — sets
// evaluated and pruned — next to cycles and traffic for the graphs the
// repository benchmark replays layer by layer (bench/ledger.go's
// replaySet: squeezenet/8 on tight4 and roomy4, vgg16/8 conv3_* on
// arch5) and for fused pairs of the vgg16/4·arch5 job that is most of
// cold-variants, under the quick budget's window and cap, unhinted and
// hinted, and once per layer under the defaults. Captured at the commit
// before set formation became one prefix walk (f1f7bb1), when every
// candidate was signed and placed from scratch: the counts are how many
// candidates each width's cap and the step's dedup let through, so a
// walk that visited, capped or pruned differently would move them even
// where the schedule stayed put.
func TestSetCountsPinned(t *testing.T) {
	arch5, err := arch.Preset("arch5")
	if err != nil {
		t.Fatal(err)
	}
	squeezenet, err := nets.ByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	vgg, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	squeezenet = squeezenet.Scale(8)
	vgg8, vgg4 := vgg.Scale(8), vgg.Scale(4)
	var got bytes.Buffer
	run := func(a arch.Config, name string, gr *dfg.Graph, mode string, cfg Config) {
		cfg.Arch = a
		r, err := Schedule(gr, cfg)
		if err != nil {
			fmt.Fprintf(&got, "%s %s %s: %v\n", a.Name, name, mode, err)
			return
		}
		fmt.Fprintf(&got, "%s %s %s: evaluated %d pruned %d sets %d cycles %d bytes %d\n",
			a.Name, name, mode, r.SetsEvaluated, r.SetsPruned, len(r.Sets), r.LatencyCycles, r.TrafficBytes())
	}
	tilings := func(a arch.Config, l layer.Conv) []tile.Factors {
		return tile.Enumerate(l, tile.EnumLimits{SPMBytes: a.SPMBytes, Cores: a.Cores, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6})
	}
	for _, c := range []struct {
		a      arch.Config
		layers []layer.Conv
	}{
		{benchMachines[0], squeezenet.Layers[:10]},
		{benchMachines[1], squeezenet.Layers[:10]},
		{arch5, vgg8.Layers[4:7]},
	} {
		for _, l := range c.layers {
			for i, f := range tilings(c.a, l) {
				gr := buildGraph(t, l, f, c.a)
				name := fmt.Sprintf("%s %v", l.Name, f)
				run(c.a, name, gr, "quick", Config{MaxReadyWindow: 12, MaxCandidateSets: 32})
				run(c.a, name, gr, "quick-hinted", Config{MaxReadyWindow: 12, MaxCandidateSets: 32, Hint: loop.Order(gr, loop.Canonical()[i%3])})
				if i == 0 {
					run(c.a, name, gr, "default", Config{})
					run(c.a, name, gr, "default-unpruned", Config{DisablePruning: true})
				}
			}
		}
	}
	fused := 0
	for i := 0; i+1 < len(vgg4.Layers); i++ {
		l1, l2 := vgg4.Layers[i], vgg4.Layers[i+1]
		if dfg.CheckFusable(l1, l2) != nil {
			continue
		}
		t1, t2 := tilings(arch5, l1), tilings(arch5, l2)
		if len(t1) == 0 || len(t2) == 0 {
			continue
		}
		g1, err := tile.NewGrid(l1, t1[0])
		if err != nil {
			t.Fatal(err)
		}
		g2, err := tile.NewGrid(l2, t2[0])
		if err != nil {
			t.Fatal(err)
		}
		gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(arch5))
		if err != nil {
			continue
		}
		fused++
		run(arch5, fmt.Sprintf("%s+%s %v+%v", l1.Name, l2.Name, t1[0], t2[0]), gr, "quick-fused", Config{MaxReadyWindow: 12, MaxCandidateSets: 32})
	}
	if fused == 0 {
		t.Fatal("no fused pair was built: the golden pins nothing fused")
	}
	const path = "testdata/set_counts.txt"
	if *updateSetCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("set counts changed, first at line %d:\n got  %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("set counts changed: %d lines, want %d", len(gl), len(wl))
	}
}
