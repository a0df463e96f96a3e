// Command flexer schedules a DNN layer or network on a multi-NPU
// configuration and reports the out-of-order schedule next to the best
// static loop-order baseline.
//
// Usage:
//
//	flexer -arch arch5 -net vgg16                     # whole network
//	flexer -arch arch1 -net resnet50 -layer conv_3_1_1
//	flexer -arch arch6 -net vgg16 -layer conv4_2 -json schedule.json
//	flexer -arch arch1 -net vgg16 -layer conv3_1 -priority min-transfer -mempolicy first-fit
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	flexer "github.com/flexer-sched/flexer"
	"github.com/flexer-sched/flexer/internal/stats"
	"github.com/flexer-sched/flexer/internal/tile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flexer:", err)
		os.Exit(1)
	}
}

func run() error {
	archName := flag.String("arch", "arch1", "hardware preset (arch1..arch8)")
	netName := flag.String("net", "vgg16", "network (vgg16, resnet50, squeezenet, yolov2)")
	layerName := flag.String("layer", "", "single layer to schedule (default: whole network)")
	scale := flag.Int("scale", 1, "divide spatial dimensions by this factor")
	budgetName := flag.String("budget", "default", "search budget: "+strings.Join(flexer.BudgetNames(), ", "))
	priority := flag.String("priority", "default", "set priority: "+strings.Join(flexer.PriorityNames(), ", "))
	mempolicy := flag.String("mempolicy", "flexer", "spill policy: "+strings.Join(flexer.MemPolicyNames(), ", "))
	metricName := flag.String("metric", "default", "ranking metric (default = latency x traffic): "+strings.Join(flexer.MetricNames(), ", "))
	jsonPath := flag.String("json", "", "write the best OoO schedule as JSON to this file")
	csvPath := flag.String("csv", "", "write the best OoO schedule timeline as CSV to this file")
	gantt := flag.Bool("gantt", false, "print a textual Gantt chart of both schedules (layer mode)")
	workers := flag.Int("workers", 0, "search parallelism (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list available archs, networks and layers, then exit")
	faultSpec := flag.String("fault", "", `fault plan for degraded-mode evaluation, e.g. "core1@5000,dma@5000x1.5"`)
	faultSeed := flag.Int64("fault-seed", 0, "generate a random survivable fault plan from this seed (layer mode; overrides -fault)")
	fuseDepth := flag.Int("fuse-depth", 0, "fuse up to this many consecutive layer boundaries into cross-layer schedules (network mode; 0 = layerwise)")
	flag.Parse()

	if *list {
		printInventory()
		return nil
	}

	cfg, err := flexer.Preset(*archName)
	if err != nil {
		return err
	}
	net, err := flexer.NetworkByName(*netName)
	if err != nil {
		return err
	}
	net = net.Scale(*scale)

	opts := flexer.Options{Arch: cfg, Workers: *workers, Cache: flexer.NewCache()}
	if opts.Budget, err = flexer.BudgetByName(*budgetName); err != nil {
		return err
	}
	if opts.Priority, err = flexer.ParsePriority(*priority); err != nil {
		return err
	}
	if opts.MemPolicy, err = flexer.ParseMemPolicy(*mempolicy); err != nil {
		return err
	}
	if opts.Metric, err = flexer.ParseMetric(*metricName); err != nil {
		return err
	}

	if *faultSpec != "" {
		plan, err := flexer.ParseFaultPlan(*faultSpec)
		if err != nil {
			return err
		}
		if err := plan.Validate(cfg.Cores); err != nil {
			return fmt.Errorf("-fault: %w", err)
		}
		opts.FaultPlan = plan
	}

	fmt.Printf("# %s\n", cfg)
	if *layerName != "" {
		l, err := net.Layer(*layerName)
		if err != nil {
			return err
		}
		return runLayer(l, opts, *jsonPath, *csvPath, *gantt, *faultSeed)
	}
	if *faultSeed != 0 {
		return fmt.Errorf("-fault-seed needs -layer (the horizon is one layer's makespan)")
	}
	if *fuseDepth < 0 {
		return fmt.Errorf("-fuse-depth must be >= 0, got %d", *fuseDepth)
	}
	opts.FuseDepth = *fuseDepth
	return runNetwork(net, opts)
}

func printInventory() {
	fmt.Println("architectures (Table 1):")
	for _, a := range flexer.Presets() {
		fmt.Printf("  %s\n", a)
	}
	fmt.Println("\nnetworks:")
	for _, n := range flexer.Networks() {
		fmt.Printf("  %-12s %d conv layers:", n.Name, len(n.Layers))
		for i, l := range n.Layers {
			if i%6 == 0 {
				fmt.Printf("\n    ")
			}
			fmt.Printf("%-22s", l.Name)
		}
		fmt.Println()
	}
}

func runLayer(l flexer.Conv, opts flexer.Options, jsonPath, csvPath string, gantt bool, faultSeed int64) error {
	fmt.Printf("# %s\n", l)
	start := time.Now()
	lr, err := flexer.SearchLayer(l, opts)
	if err != nil {
		return err
	}
	// A seeded random fault plan needs the nominal makespan as its
	// horizon, so it is generated after the search and repaired here
	// rather than through Options.FaultPlan.
	if faultSeed != 0 {
		plan := flexer.RandomFaultPlan(faultSeed, opts.Arch.Cores, lr.BestOoO.LatencyCycles)
		fmt.Printf("# fault plan (seed %d): %s\n", faultSeed, plan)
		deg, err := flexer.RepairSchedule(l, lr.BestOoO, plan, opts)
		if err != nil {
			return err
		}
		lr.Degraded = deg
		lr.FaultPlan = plan
	}
	fmt.Printf("# searched %d tilings (%d scheduled to completion, %d pruned, %d runs aborted) in %v\n\n",
		lr.CandidatesEnumerated, len(lr.Candidates), lr.CandidatesPruned, lr.SchedulesAborted, time.Since(start).Round(time.Millisecond))
	printSchedule("flexer (OoO)", lr.BestOoO)
	printSchedule("best static ("+lr.BestStaticOrder.Name+")", lr.BestStatic)
	if lr.Degraded != nil {
		printSchedule("degraded ("+lr.FaultPlan.String()+")", lr.Degraded)
	}
	fmt.Printf("\nspeedup               %8.3f x\n", lr.Speedup())
	fmt.Printf("data-transfer reduction %6.3f x\n", lr.TrafficReduction())
	if lr.Degraded != nil {
		fmt.Printf("degraded slowdown     %8.3f x (degraded %d vs nominal %d cycles)\n",
			lr.DegradedRatio(), lr.Degraded.LatencyCycles, lr.BestOoO.LatencyCycles)
	}

	fmt.Println("\nspatial reuse patterns (sets per pattern):")
	for _, name := range []string{"flexer", "static"} {
		res := lr.BestOoO
		if name == "static" {
			res = lr.BestStatic
		}
		counts := stats.ReusePatterns(res)
		fmt.Printf("  %-7s:", name)
		for _, p := range stats.SortedPatterns(counts) {
			fmt.Printf(" %s=%d", p, counts[p])
		}
		fmt.Println()
	}

	if gantt {
		fmt.Println()
		if err := flexer.WriteGantt(os.Stdout, lr.BestOoO, 100); err != nil {
			return err
		}
		if err := flexer.WriteGantt(os.Stdout, lr.BestStatic, 100); err != nil {
			return err
		}
		if lr.Degraded != nil {
			if err := flexer.WriteGanttFaults(os.Stdout, lr.Degraded, 100, lr.FaultPlan); err != nil {
				return err
			}
		}
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := flexer.WriteJSON(f, lr.BestOoO, true); err != nil {
			return err
		}
		fmt.Printf("\nwrote JSON schedule to %s\n", jsonPath)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := flexer.WriteCSV(f, lr.BestOoO); err != nil {
			return err
		}
		fmt.Printf("wrote CSV timeline to %s\n", csvPath)
	}
	return nil
}

func printSchedule(name string, s *flexer.Schedule) {
	fmt.Printf("%-28s tiling %-14s latency %10d cycles, traffic %12s (load %s, spill %s, writeback %s)\n",
		name, s.Factors, s.LatencyCycles,
		stats.FormatBytes(s.TrafficBytes()), stats.FormatBytes(s.LoadBytes),
		stats.FormatBytes(s.SpillBytes), stats.FormatBytes(s.WritebackBytes))
	for k := 0; k < tile.NumKinds; k++ {
		ks := s.PerKind[k]
		fmt.Printf("    %-3s loads %4d (%10s)  spills %4d (%10s)  writebacks %4d (%10s)\n",
			tile.Kind(k), ks.LoadCount, stats.FormatBytes(ks.LoadBytes),
			ks.SpillCount, stats.FormatBytes(ks.SpillBytes),
			ks.WritebackCount, stats.FormatBytes(ks.WritebackBytes))
	}
}

func runNetwork(net flexer.Network, opts flexer.Options) error {
	fmt.Printf("# network %s (%d layers)\n\n", net.Name, len(net.Layers))
	start := time.Now()
	nr, err := flexer.SearchNetwork(net, opts)
	if err != nil {
		return err
	}
	degraded := len(nr.Layers) > 0 && nr.Layers[0].Degraded != nil
	if degraded {
		fmt.Printf("%-16s %-14s %12s %12s %12s %9s %10s\n", "layer", "tiling", "ooo-cycles", "static-cyc", "degraded", "speedup", "reduction")
	} else {
		fmt.Printf("%-16s %-14s %12s %12s %9s %10s\n", "layer", "tiling", "ooo-cycles", "static-cyc", "speedup", "reduction")
	}
	for _, lr := range nr.Layers {
		if degraded {
			fmt.Printf("%-16s %-14s %12d %12d %12d %9.3f %10.3f\n",
				lr.Layer.Name, lr.BestOoO.Factors,
				lr.BestOoO.LatencyCycles, lr.BestStatic.LatencyCycles,
				lr.Degraded.LatencyCycles, lr.Speedup(), lr.TrafficReduction())
		} else {
			fmt.Printf("%-16s %-14s %12d %12d %9.3f %10.3f\n",
				lr.Layer.Name, lr.BestOoO.Factors,
				lr.BestOoO.LatencyCycles, lr.BestStatic.LatencyCycles,
				lr.Speedup(), lr.TrafficReduction())
		}
	}
	if nr.FuseDepth > 0 {
		fmt.Printf("\nfusion (depth %d): %d segment(s)\n", nr.FuseDepth, len(nr.Segments))
		for _, s := range nr.Segments {
			fmt.Printf("  %s..%s: %d cycles / %s (layerwise %d / %s, gathered %s on-chip)\n",
				nr.Layers[s.First].Layer.Name, nr.Layers[s.Last].Layer.Name,
				s.Result.LatencyCycles, stats.FormatBytes(s.Result.TrafficBytes()),
				s.LayerwiseCycles, stats.FormatBytes(s.LayerwiseTraffic),
				stats.FormatBytes(s.Result.GatherBytes))
		}
		for _, b := range nr.Boundaries {
			if !b.Fused {
				fmt.Printf("  %s->%s not fused: %s\n", b.Producer, b.Consumer, b.Reason)
			}
		}
	}
	oooLat, staticLat, oooT, staticT := nr.Totals()
	fmt.Printf("\nend-to-end: ooo %d cycles / %s vs static %d cycles / %s\n",
		oooLat, stats.FormatBytes(oooT), staticLat, stats.FormatBytes(staticT))
	fmt.Printf("speedup %.3fx, data-transfer reduction %.3fx (searched in %v)\n",
		nr.Speedup(), nr.TrafficReduction(), time.Since(start).Round(time.Millisecond))
	if degraded {
		fmt.Printf("degraded: %d cycles end to end, %.3fx over nominal\n",
			nr.DegradedCycles(), nr.DegradedRatio())
	}
	return nil
}
