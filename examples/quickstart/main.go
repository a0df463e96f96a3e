// Quickstart: schedule one ResNet-50 layer on a 2-core NPU and compare
// the out-of-order schedule against the best static loop order.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	flexer "github.com/flexer-sched/flexer"
)

func main() {
	// Hardware: preset arch1 from the paper (2 cores, 256 KiB shared
	// scratchpad, 32 B/cycle off-chip bandwidth).
	cfg, err := flexer.Preset("arch1")
	if err != nil {
		log.Fatal(err)
	}

	// Workload: VGG16's conv3_1 (a layer with real scratchpad
	// pressure), spatially scaled by 2 to keep the search quick.
	net, err := flexer.NetworkByName("vgg16")
	if err != nil {
		log.Fatal(err)
	}
	layer, err := net.Scale(2).Layer("conv3_1")
	if err != nil {
		log.Fatal(err)
	}

	// Search all viable tilings with a small budget; the result holds
	// the best out-of-order schedule and the best static baseline.
	result, err := flexer.SearchLayer(layer, flexer.Options{
		Arch:   cfg,
		Budget: flexer.QuickBudget(),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("layer   : %s\n", layer)
	fmt.Printf("hardware: %s\n", cfg)
	fmt.Printf("tilings : %d searched (%d scheduled to completion, %d pruned, %d runs aborted)\n\n",
		result.CandidatesEnumerated, len(result.Candidates), result.CandidatesPruned, result.SchedulesAborted)

	ooo, static := result.BestOoO, result.BestStatic
	fmt.Printf("out-of-order: tiling %-14s %9d cycles, %9d bytes moved\n",
		ooo.Factors, ooo.LatencyCycles, ooo.TrafficBytes())
	fmt.Printf("best static : tiling %-14s %9d cycles, %9d bytes moved (%s)\n",
		static.Factors, static.LatencyCycles, static.TrafficBytes(), result.BestStaticOrder.Name)
	fmt.Printf("\nspeedup %.3fx, data-transfer reduction %.3fx\n",
		result.Speedup(), result.TrafficReduction())
}
