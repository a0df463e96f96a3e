// Command flexerbench regenerates the tables and figures of the paper's
// evaluation section, prints them, and keeps the committed record of
// them (EXPERIMENTS.json) honest.
//
// Usage:
//
//	flexerbench -exp fig8                            # one experiment
//	flexerbench -exp all                             # everything, quick regime
//	flexerbench -exp fig8 -scale 1 -budget default   # the paper's regime
//	flexerbench -exp all -json out.json              # + put the tables into a record
//	flexerbench -exp all -workers 1 -guard EXPERIMENTS.json   # + demand equality
//	flexerbench -exp fig8 -cpuprofile cpu.pb.gz      # profile a run
//
// Experiments: table1, fig1, fig8, fig9a, fig9b, fig9c, fig10, fig11,
// fig12, fusion, ablations, bandwidth, energy, chain, all.
//
// -json puts the run's tables into the record file, replacing tables of
// the same experiment, scale and budget and keeping the others, so one
// file holds several regimes (`make experiments` writes EXPERIMENTS.json
// this way). -guard compares the run with a committed record and exits
// nonzero unless every table it ran is in the record and equal to it,
// cell for cell; the record's effort counters are those of -workers 1.
// See docs/PERFORMANCE.md.
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
	jsonOut := flag.String("json", "", "put the run's tables into this record file")
	guard := flag.String("guard", "", "compare the run with this committed record; exit 1 unless equal")
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

	if _, err := search.BudgetByName(*budget); err != nil {
		fmt.Fprintln(os.Stderr, "flexerbench:", err)
		return 2
	}
	cfg := experiments.Config{Scale: *scale, Budget: *budget, Workers: *workers, Cache: search.NewCache()}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiments.Names()
	}
	fresh := &experiments.Record{SchemaVersion: experiments.SchemaVersion}
	for _, name := range names {
		start := time.Now()
		t, err := experiments.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
			return 1
		}
		experiments.Render(os.Stdout, t)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		fresh.Put(t)
	}
	if err := record(fresh, *jsonOut, *guard); err != nil {
		fmt.Fprintf(os.Stderr, "flexerbench: %v\n", err)
		return 1
	}
	return 0
}

// record puts the fresh tables into the record file at jsonOut and
// guards them against the committed record at guard (either may be
// empty).
func record(fresh *experiments.Record, jsonOut, guard string) error {
	if jsonOut != "" {
		rec, err := experiments.ReadRecord(jsonOut)
		if err != nil {
			return err
		}
		if rec.SchemaVersion != fresh.SchemaVersion {
			return fmt.Errorf("%s is a schema v%d record, this build writes v%d", jsonOut, rec.SchemaVersion, fresh.SchemaVersion)
		}
		for _, t := range fresh.Tables {
			rec.Put(t)
		}
		if err := rec.Write(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d table(s) written to %s\n", len(fresh.Tables), jsonOut)
	}
	if guard != "" {
		committed, err := experiments.ReadRecord(guard)
		if err != nil {
			return err
		}
		if err := experiments.GuardCompare(committed, fresh); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "guard: %d table(s) equal to %s\n", len(fresh.Tables), guard)
	}
	return nil
}
