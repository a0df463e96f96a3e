package search

// Inter-layer fusion pass: after the per-layer search has picked a best
// tiling and schedule for every layer, walk the network's layer
// boundaries left to right and greedily grow runs of consecutive
// shape-compatible layers into fused segments. A segment is scheduled
// as one fused DFG (dfg.BuildFused) using each member layer's winning
// tiling, so layer N+1's early tiles pipeline onto cores idled by layer
// N's drain and producer outputs feed consumers on-chip. A segment is
// accepted only when its fused schedule verifies AND strictly beats the
// summed layerwise schedules on both cycles and off-chip traffic;
// otherwise the boundary stays layerwise and the reason is recorded.

import (
	"context"
	"errors"
	"fmt"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/verify"
)

// FusedSegment is one run of consecutive layers scheduled as a single
// fused graph by the fusion pass.
type FusedSegment struct {
	// First and Last are the inclusive layer indices the segment covers
	// (into NetworkResult.Layers).
	First, Last int
	// Factors holds each member layer's tiling, in layer order — the
	// same tilings the layerwise search picked.
	Factors []tile.Factors
	// Result is the fused schedule; it replaces the member layers'
	// BestOoO results in NetworkResult.Totals.
	Result *sched.Result
	// Degraded is Result repaired around Options.FaultPlan (nil without
	// a plan).
	Degraded *sched.Result
	// LayerwiseCycles and LayerwiseTraffic are the summed BestOoO
	// latency and off-chip traffic of the member layers — what the
	// segment was accepted against (Result is strictly better on both).
	LayerwiseCycles  int64
	LayerwiseTraffic int64
}

// BoundaryDecision records the fusion pass's verdict on one layer
// boundary.
type BoundaryDecision struct {
	// Producer and Consumer name the layers on either side.
	Producer, Consumer string
	// Fused reports whether the boundary ended up inside a segment.
	Fused bool
	// Reason explains a non-fused boundary (shape mismatch, no win,
	// depth budget); "fused" otherwise.
	Reason string
}

// fuseNetwork runs the fusion pass over a completed layerwise network
// result, appending segments and boundary decisions in place. A zero
// FuseDepth leaves nr untouched. Scheduling failures of a candidate
// segment demote it to layerwise with a recorded reason; a fused
// schedule that fails verification is a hard error (it would silently
// corrupt the totals).
func fuseNetwork(ctx context.Context, nr *NetworkResult, opts Options) error {
	nr.FuseDepth = opts.FuseDepth
	if opts.FuseDepth <= 0 || len(nr.Layers) < 2 {
		return nil
	}
	m := model.New(opts.Arch)
	i := 0
	for i < len(nr.Layers) {
		last := i
		var seg *fusedCandidate
		for last < len(nr.Layers)-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
			dec := BoundaryDecision{
				Producer: nr.Layers[last].Layer.Name,
				Consumer: nr.Layers[last+1].Layer.Name,
			}
			if last-i >= opts.FuseDepth {
				dec.Reason = fmt.Sprintf("fuse depth %d reached", opts.FuseDepth)
				nr.Boundaries = append(nr.Boundaries, dec)
				break
			}
			cand, reason, err := scheduleFusedSegment(nr, i, last+1, m, opts)
			if err != nil {
				return err
			}
			if cand == nil {
				dec.Reason = reason
				nr.Boundaries = append(nr.Boundaries, dec)
				break
			}
			dec.Fused = true
			dec.Reason = "fused"
			nr.Boundaries = append(nr.Boundaries, dec)
			if seg != nil {
				graphPool.Put(seg.gr) // the segment has grown past it
			}
			seg = cand
			last++
		}
		if seg != nil {
			fs := &FusedSegment{
				First: i, Last: last,
				Factors:          seg.factors,
				Result:           seg.res,
				LayerwiseCycles:  seg.sumCycles,
				LayerwiseTraffic: seg.sumTraffic,
			}
			if !opts.FaultPlan.Empty() {
				// A degraded machine is expected to be slower than the
				// layerwise sum; Repair ignores seg.cfg's acceptance cutoff.
				deg, err := sched.Repair(seg.gr, seg.res, opts.FaultPlan, seg.cfg)
				if err != nil {
					return fmt.Errorf("search: degraded evaluation of fused segment %s..%s: %w",
						nr.Layers[i].Layer.Name, nr.Layers[last].Layer.Name, err)
				}
				if err := verify.ScheduleFaults(seg.gr, deg, opts.Arch, opts.FaultPlan); err != nil {
					return fmt.Errorf("search: degraded fused segment %s..%s fails verification: %w",
						nr.Layers[i].Layer.Name, nr.Layers[last].Layer.Name, err)
				}
				fs.Degraded = deg
			}
			graphPool.Put(seg.gr) // closed: Repair and verify have read it
			nr.Segments = append(nr.Segments, fs)
		}
		i = last + 1
	}
	return nil
}

// fusedCandidate carries an accepted segment extension's schedule plus
// everything needed to extend or repair it.
type fusedCandidate struct {
	gr         *dfg.Graph
	cfg        sched.Config
	res        *sched.Result
	factors    []tile.Factors
	sumCycles  int64
	sumTraffic int64
}

// scheduleFusedSegment builds and schedules the fused graph over layers
// [first, last] using each layer's winning tiling. It returns a nil
// candidate with a human-readable reason when the boundary should stay
// layerwise (shape mismatch, infeasible fused schedule, or no strict
// win on cycles and traffic), and an error only for verification
// failures or cancellation.
func scheduleFusedSegment(nr *NetworkResult, first, last int, m model.Model, opts Options) (*fusedCandidate, string, error) {
	grids := make([]*tile.Grid, 0, last-first+1)
	factors := make([]tile.Factors, 0, last-first+1)
	var sumCycles, sumTraffic int64
	for j := first; j <= last; j++ {
		lr := nr.Layers[j]
		if j > first {
			if err := dfg.CheckFusable(nr.Layers[j-1].Layer, lr.Layer); err != nil {
				return nil, err.Error(), nil
			}
		}
		g, err := tile.NewGrid(lr.Layer, lr.BestOoO.Factors)
		if err != nil {
			return nil, fmt.Sprintf("tiling %s no longer grids: %v", lr.BestOoO.Factors, err), nil
		}
		grids = append(grids, g)
		factors = append(factors, lr.BestOoO.Factors)
		sumCycles += lr.BestOoO.LatencyCycles
		sumTraffic += lr.BestOoO.TrafficBytes()
	}
	gr, err := dfg.BuildFusedInto(graphPool.Get().(*dfg.Graph), grids, m)
	if err != nil {
		return nil, err.Error(), nil
	}
	// The fused schedule only matters if it beats the layerwise sum, so
	// a run that exceeds it is abandoned mid-way.
	cfg := opts.SchedConfig(m)
	cfg.Cutoff = func(cycles, _ int64) bool { return cycles > sumCycles }
	res, err := sched.Schedule(gr, cfg)
	reject := func(reason string) (*fusedCandidate, string, error) {
		graphPool.Put(gr) // nothing reads a rejected candidate's graph again
		return nil, reason, nil
	}
	switch {
	case errors.Is(err, sched.ErrCutoff):
		return reject(fmt.Sprintf("fused schedule exceeds layerwise %d cycles", sumCycles))
	case err != nil:
		return reject(fmt.Sprintf("fused scheduling failed: %v", err))
	}
	if res.LatencyCycles >= sumCycles {
		return reject(fmt.Sprintf("no cycle win (fused %d vs layerwise %d)", res.LatencyCycles, sumCycles))
	}
	if res.TrafficBytes() >= sumTraffic {
		return reject(fmt.Sprintf("no traffic win (fused %d vs layerwise %d bytes)", res.TrafficBytes(), sumTraffic))
	}
	if err := verify.Schedule(gr, res, opts.Arch); err != nil {
		return nil, "", fmt.Errorf("search: fused segment %s..%s fails verification: %w",
			nr.Layers[first].Layer.Name, nr.Layers[last].Layer.Name, err)
	}
	return &fusedCandidate{
		gr: gr, cfg: cfg, res: res,
		factors: factors, sumCycles: sumCycles, sumTraffic: sumTraffic,
	}, "", nil
}
