package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one end-to-end metric on one workload, b against a.
const (
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (exclusive method), so
// spreads read the same here and in the driver. vs needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// comparison is one metric of one workload in two sets of runs.
type comparison struct {
	Workload, Metric   string
	MedianA, MedianB   float64
	Worse, Spread      float64 // shares of |MedianA|; Worse > 0 means b is worse
	Bound              float64
	Verdict            string
	SamplesA, SamplesB int
}

// judge applies a metric's bound and direction to two sets of runs.
//
//   - worse: b's median is worse than a's by more than the bound.
//   - better: every run of b beats every run of a, or b's median is
//     better by more than the bound and the spread is within it.
//   - unresolved: neither of those, and the runs of either side spread
//     (interquartile, as a share of a's median) wider than the bound —
//     the data cannot tell "unchanged" from "changed".
//   - unchanged: the rest.
func judge(spec metricSpec, a, b []float64) comparison {
	c := comparison{Metric: spec.Name, Bound: spec.Bound, MedianA: median(a), MedianB: median(b), SamplesA: len(a), SamplesB: len(b)}
	base := math.Abs(c.MedianA)
	if base == 0 {
		base = 1
	}
	sign := 1.0 // lower is better: growing is worse
	if spec.Better == "higher" {
		sign = -1
	}
	c.Worse = sign * (c.MedianB - c.MedianA) / base
	for _, vs := range [][]float64{a, b} {
		if len(vs) >= 2 {
			q1, q3 := quartiles(vs)
			c.Spread = math.Max(c.Spread, (q3-q1)/base)
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		c.Verdict = verdictBetter
	case c.Worse > c.Bound:
		c.Verdict = verdictWorse
	case c.Spread > c.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse < -c.Bound:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// readRecords loads the untraced runs of a JSON-lines record file,
// grouped by workload then metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareRecords judges every end-to-end metric on every workload
// present in both files, in table order.
func compareRecords(a, b map[string]map[string][]float64) []comparison {
	var out []comparison
	for _, w := range workloadSpecs {
		for _, spec := range endToEndSpecs {
			va, vb := a[w.Name][spec.Name], b[w.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(spec, va, vb)
			c.Workload = w.Name
			out = append(out, c)
		}
	}
	return out
}

// runCompare prints one row per workload and metric and one summary
// row per workload; it exits 1 when any metric is worse or unresolved.
func runCompare(w io.Writer, pathA, pathB string) int {
	var sets [2]map[string]map[string][]float64
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return printComparison(w, compareRecords(sets[0], sets[1]))
}

func printComparison(w io.Writer, cs []comparison) int {
	if len(cs) == 0 {
		fmt.Fprintln(w, "no workload has untraced runs in both files")
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-20s %16s %16s %9s %8s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread", "verdict")
	tally := map[string]map[string]int{}
	for _, c := range cs {
		fmt.Fprintf(w, "%-14s %-20s %16.6g %16.6g %+8.2f%% %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
			c.Workload, c.Metric, c.MedianA, c.MedianB, 100*c.Worse, 100*c.Bound, 100*c.Spread, c.Verdict, c.SamplesA, c.SamplesB)
		if tally[c.Workload] == nil {
			tally[c.Workload] = map[string]int{}
		}
		tally[c.Workload][c.Verdict]++
		if c.Verdict == verdictWorse || c.Verdict == verdictUnresolved {
			code = 1
		}
	}
	for _, ws := range workloadSpecs {
		if t := tally[ws.Name]; t != nil {
			fmt.Fprintf(w, "== %-14s better=%d unchanged=%d worse=%d unresolved=%d\n", ws.Name,
				t[verdictBetter], t[verdictUnchanged], t[verdictWorse], t[verdictUnresolved])
		}
	}
	return code
}
