package tile

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
)

// oracleCandidateValues is the candidate-value list as it was built
// first: every block count visited, a map to drop repeated extents, a
// sort.
func oracleCandidateValues(total int) []int {
	if total <= 0 {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for n := 1; n <= total; {
		v := ceilDiv(total, n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		// Meant as a jump to the next block count that changes the
		// extent, but ceilDiv(total, v) never exceeds n: it advanced by
		// one, whatever the extent.
		if next := ceilDiv(total, v) + 1; next > n {
			n = next
		} else {
			n++
		}
	}
	sort.Ints(out)
	return out
}

// oracleSampleTilings is sampleTilings as it was: a stable sort of every
// scored tiling by score, then the top third and the stride.
func oracleSampleTilings(l layer.Conv, fs []Factors, lim EnumLimits) (keep []Factors, ties int) {
	cores := lim.Cores
	if cores <= 0 {
		cores = 1
	}
	type scored struct {
		f Factors
		s float64
	}
	sc := make([]scored, len(fs))
	for i, f := range fs {
		foot := maxOperandBytesFast(l, cutsOf(l, f)) * int64(cores)
		fill := float64(foot) / float64(lim.SPMBytes)
		if fill > 1 {
			fill = 1 / fill
		}
		align := 0.0
		if f.OC%16 == 0 || f.OC == l.OutC {
			align += 0.10
		}
		if f.IC%16 == 0 || f.IC == l.InC {
			align += 0.10
		}
		sc[i] = scored{f, fill + align}
	}
	slices.SortStableFunc(sc, func(a, b scored) int { return cmp.Compare(b.s, a.s) })
	for i := 1; i < len(sc); i++ {
		if sc[i].s == sc[i-1].s {
			ties++
		}
	}
	n := lim.MaxTilings
	keep = make([]Factors, 0, n)
	top := n / 3
	if top < 1 {
		top = 1
	}
	for i := 0; i < top && i < len(sc); i++ {
		keep = append(keep, sc[i].f)
	}
	rest := sc[top:]
	need := n - len(keep)
	if need > 0 && len(rest) > 0 {
		step := float64(len(rest)) / float64(need)
		if step < 1 {
			step = 1
		}
		for i := 0.0; int(i) < len(rest) && len(keep) < n; i += step {
			keep = append(keep, rest[int(i)].f)
		}
	}
	slices.SortFunc(keep, func(a, b Factors) int {
		return cmp.Or(cmp.Compare(a.OH, b.OH), cmp.Compare(a.OW, b.OW), cmp.Compare(a.OC, b.OC), cmp.Compare(a.IC, b.IC))
	})
	return keep, ties
}

func TestCandidateValuesMatchesOracle(t *testing.T) {
	for total := -1; total <= 3000; total++ {
		if got, want := appendCandidateValues(nil, total), oracleCandidateValues(total); !slices.Equal(got, want) {
			t.Fatalf("appendCandidateValues(nil, %d) = %v, want %v", total, got, want)
		}
	}
}

// TestSampleTilingsMatchesOracle: Enumerate, which keeps a key per
// tiling and resolves only the ranks the sample reads, picks the tilings
// the full stable sort of every tiling did, on random layers —
// square ones, whose transposed tilings tie on score, and scratchpads
// small enough that unrelated footprints tie at the alignment bonus
// alone — under random limits, from one tiling kept to all but one; and
// the unsampled enumeration is canonically ordered, which is what lets a
// tie rank by position.
func TestSampleTilingsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var sampled, tied, fallback int
	for c := 0; c < cases; c++ {
		h := 4 + rng.Intn(60)
		w := h
		if rng.Intn(3) == 0 {
			w = 4 + rng.Intn(60)
		}
		l := layer.NewConv("s", h, w, 1+rng.Intn(256), 1+rng.Intn(256), 1+2*rng.Intn(2))
		lim := EnumLimits{
			SPMBytes:        int64(8<<10) << rng.Intn(8),
			Cores:           rng.Intn(9), // 0 counts as one
			MaxOps:          64 << rng.Intn(7),
			MaxValuesPerDim: 2 + rng.Intn(11),
		}
		fs := Enumerate(l, lim)
		if !slices.IsSortedFunc(fs, func(a, b Factors) int {
			return cmp.Or(cmp.Compare(a.OH, b.OH), cmp.Compare(a.OW, b.OW), cmp.Compare(a.OC, b.OC), cmp.Compare(a.IC, b.IC), 1)
		}) {
			t.Fatalf("case %d: %s under %+v does not enumerate in strictly ascending canonical order", c, l, lim)
		}
		if len(fs) < 2 {
			continue
		}
		for _, n := range []int{1, 2, 3, 4, 24, 1 + rng.Intn(len(fs)-1), len(fs) - 1} {
			if n >= len(fs) {
				continue
			}
			lim.MaxTilings = n
			want, ties := oracleSampleTilings(l, fs, lim)
			if got := Enumerate(l, lim); !slices.Equal(got, want) {
				t.Fatalf("case %d: %s, %d of %d tilings under %+v:\n got %v\nwant %v", c, l, n, len(fs), lim, got, want)
			}
			sampled++
			if ties > 0 {
				tied++
			}
		}
		// The fallback of the selection — a range sorted outright once
		// the pivots have gone bad — must resolve the same ranks.
		ks := make([]sampleKey, len(fs))
		for i := range ks {
			ks[i] = sampleKey{float64(rng.Intn(4)), int64(i)}
		}
		sorted := slices.Clone(ks)
		slices.SortFunc(sorted, func(a, b sampleKey) int { return cmp.Or(cmp.Compare(b.s, a.s), cmp.Compare(a.i, b.i)) })
		ranks := []int{0, len(ks) / 2, len(ks) - 1}
		ranks = slices.Compact(ranks)
		selectRanks(ks, 0, len(ks), ranks, rng.Intn(3))
		for _, r := range ranks {
			if ks[r] != sorted[r] {
				t.Fatalf("case %d: selectRanks with a spent depth puts %v at rank %d of %d, a sort %v", c, ks[r], r, len(ks), sorted[r])
			}
		}
		fallback++
	}
	t.Logf("%d samples compared, %d with tied scores, %d fallback selections", sampled, tied, fallback)
	if sampled < cases || tied < sampled/4 {
		t.Error("the draw produced too few samples, or too few with tied scores")
	}
}
