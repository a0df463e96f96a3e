// Command flexerbench regenerates the tables and figures of the paper's
// evaluation section and prints the same rows/series the paper reports.
// It also runs the named benchmark presets behind the repo's recorded
// performance trajectory (BENCH_*.json) and the CI regression guard.
//
// Usage:
//
//	flexerbench -exp fig8                 # one experiment
//	flexerbench -exp all                  # everything
//	flexerbench -exp fig8 -scale 1 -budget default   # full-size run
//	flexerbench -json out.json -preset quick         # benchmark record
//	flexerbench -json out.json -guard BENCH_0006.json  # + regression guard
//	flexerbench -exp fig8 -cpuprofile cpu.pb.gz      # profile a run
//
// Experiments: table1, fig1, fig8, fig9a, fig9b, fig9c, fig10, fig11,
// fig12, ablations, bandwidth, energy, chain, all.
//
// Benchmark mode (enabled by -json or -guard) runs whole-network search
// presets and emits a versioned JSON record of best cycles, wall time,
// candidates enumerated/pruned/aborted, and allocations; see
// docs/PERFORMANCE.md for the schema and workflow. -guard compares the
// fresh run against a committed record and exits nonzero if any
// preset's best cycles regressed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/flexer-sched/flexer/internal/experiments"
	"github.com/flexer-sched/flexer/internal/search"
)

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	expHelp := fmt.Sprintf("experiment to run (%s, all, or a comma-separated list)",
		strings.Join(experiments.Names(), ", "))
	exp := flag.String("exp", "all", expHelp)
	scale := flag.Int("scale", 4, "divide network spatial dimensions by this factor (1 = full size)")
	budget := flag.String("budget", "quick", "search budget: "+strings.Join(search.BudgetNames(), ", "))
	workers := flag.Int("workers", 0, "search parallelism (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "run benchmark presets and write a BENCH record to this file")
	guard := flag.String("guard", "", "compare the benchmark run against this committed BENCH_*.json; exit 1 on regression")
	presetSel := flag.String("preset", "quick", "benchmark presets for -json/-guard: quick, full, all, or preset names")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			}
		}()
	}

	if *jsonOut != "" || *guard != "" {
		return runBench(*presetSel, *workers, *jsonOut, *guard)
	}
	return runExperiments(*exp, *scale, *budget, *workers)
}

// runBench executes benchmark presets, optionally writes the record,
// and optionally guards against a committed one.
func runBench(presetSel string, workers int, jsonOut, guard string) int {
	presets, err := experiments.BenchPresets(presetSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
		return 2
	}
	results, err := experiments.RunBench(presets, workers, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
		return 1
	}
	rec := experiments.NewBenchRecord(results, workers)
	if jsonOut != "" {
		if err := experiments.WriteBenchRecord(jsonOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench record written to %s\n", jsonOut)
	}
	if guard != "" {
		committed, err := experiments.ReadBenchRecord(guard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 1
		}
		if err := experiments.GuardCompare(committed, rec); err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench guard: no regression against %s\n", guard)
	}
	return 0
}

func runExperiments(exp string, scale int, budget string, workers int) int {
	cfg := experiments.Config{
		Scale:   scale,
		Workers: workers,
		Cache:   search.NewCache(),
	}
	var err error
	if cfg.Budget, err = search.BudgetByName(budget); err != nil {
		fmt.Fprintln(os.Stderr, "flexerbench:", err)
		return 2
	}

	names := strings.Split(exp, ",")
	if exp == "all" {
		names = experiments.Names()
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := run(name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func run(name string, cfg experiments.Config) error {
	w := os.Stdout
	switch name {
	case "table1":
		experiments.RenderTable1(w, experiments.Table1(cfg))
	case "fig1":
		points, err := experiments.Fig1(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig1(w, points)
	case "fig8":
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig8(w, rows)
	case "fig9a":
		rows, err := experiments.Fig9a(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig9a(w, rows)
	case "fig9b":
		rows, err := experiments.Fig9b(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig9bc(w, "Figure 9b", rows)
	case "fig9c":
		row, err := experiments.Fig9c(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig9bc(w, "Figure 9c", []experiments.Fig9bRow{row})
	case "fig10":
		rows, err := experiments.Fig10(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig10(w, rows)
	case "fig11":
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig11(w, rows)
	case "fig12":
		rows, err := experiments.Fig12(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig12(w, rows)
	case "ablations":
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		experiments.RenderAblations(w, rows)
	case "bandwidth":
		rows, err := experiments.BandwidthSweep(cfg)
		if err != nil {
			return err
		}
		experiments.RenderBandwidth(w, rows)
	case "energy":
		rows, err := experiments.EnergyEstimate(cfg)
		if err != nil {
			return err
		}
		experiments.RenderEnergy(w, rows)
	case "chain":
		rows, err := experiments.ChainDepthComparison(cfg)
		if err != nil {
			return err
		}
		experiments.RenderChainDepth(w, rows)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
