package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; sorted must be non-empty and
// ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of vs without reordering it, or 0 when vs
// is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quiet returns the indices of the cheapest fifth of repeats (at least
// one), cheapest first. The sandbox's noise is one-sided and comes in
// spells — a neighbour slows the core by anything up to 2x for seconds
// to tens of seconds, never speeds it up — so the cheapest repeats are
// the ones that measured the program rather than the neighbour, and
// every host-time metric is the median over them (quietMedian). Up to
// five repeats that is the single cheapest one.
func quiet(cost []float64) []int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	return idx[:(len(cost)+4)/5]
}

// quietMedian is the median of vs over the repeats quiet selected.
func quietMedian(vs []float64, quiet []int) float64 {
	sel := make([]float64, len(quiet))
	for i, k := range quiet {
		sel[i] = vs[k]
	}
	return median(sel)
}

// tailPercentile is the benchmark's tail rule: the highest percentile
// that still has at least ten samples beyond it among p99, p90 and
// p75; with fewer than 40 samples there is no tail worth the name and
// the tail is the median.
func tailPercentile(samples int) float64 {
	switch {
	case samples >= 1000:
		return 99
	case samples >= 100:
		return 90
	case samples >= 40:
		return 75
	}
	return 50
}

// timing summarises latency samples as the median and one tail.
type timing struct {
	P50, Tail      float64
	TailPercentile float64
	Samples        int
}

// summarize applies the tail rule to vs (any unit); vs is not reordered.
func summarize(vs []float64) timing {
	if len(vs) == 0 {
		return timing{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return timing{P50: quantile(s, 0.5), Tail: quantile(s, p/100), TailPercentile: p, Samples: len(s)}
}

// geomean returns the geometric mean of vs (all > 0), computed in log
// space in a fixed order so it repeats bit-identically.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
