package sched

import "github.com/flexer-sched/flexer/internal/dfg"

// DrawCase is drawFloorCase for the tests of package sched_test, which
// import the verifier: the drawn case's name, graph and config.
func DrawCase(next func(n int) int) (name string, gr *dfg.Graph, cfg Config, ok bool) {
	c, ok := drawFloorCase(next)
	return c.name, c.gr, c.cfg, ok
}

// FuzzDraws, FloorSeeds and ErrNoProgress are fuzzDraws, floorSeeds
// and errNoProgress.
var FuzzDraws, FloorSeeds, ErrNoProgress = fuzzDraws, floorSeeds, errNoProgress
