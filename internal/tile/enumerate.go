package tile

import (
	"cmp"
	"slices"
	"sort"

	"github.com/flexer-sched/flexer/internal/layer"
)

// EnumLimits bounds the tiling enumeration. The paper's scheduler
// iterates over "all viable tilings"; because that search took ~20 h
// per network on the authors' machine, this implementation exposes the
// same space but lets callers bound it deterministically.
type EnumLimits struct {
	// SPMBytes is the shared scratchpad capacity; tilings whose
	// single-op operand footprint exceeds it are infeasible.
	SPMBytes int64
	// Cores is the NPU count; used only for ranking (tilings whose
	// per-set footprint matches the SPM are preferred when sampling).
	Cores int
	// MaxOps skips tilings producing more tiled ops than this
	// (0 means DefaultMaxOps).
	MaxOps int
	// MaxTilings caps the number of returned tilings (0 = no cap).
	// Sampling is deterministic and diversity-preserving.
	MaxTilings int
	// MaxValuesPerDim caps the candidate factor values per dimension
	// (0 means DefaultMaxValuesPerDim).
	MaxValuesPerDim int
}

// Defaults for EnumLimits fields left zero.
const (
	DefaultMaxOps          = 4096
	DefaultMaxValuesPerDim = 10
)

// CandidateValues returns the distinct useful tile extents for a
// dimension of the given total size: for every possible block count n,
// the smallest extent ceil(total/n) realizing it. The result is sorted
// ascending and contains O(sqrt(total)) values.
func CandidateValues(total int) []int {
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
		// Jump to the next block count that changes the extent; the
		// jump target can fall at or before n for small extents, so
		// always advance by at least one.
		if next := ceilDiv(total, v) + 1; next > n {
			n = next
		} else {
			n++
		}
	}
	sort.Ints(out)
	return out
}

// subsample reduces vs to at most max values, always keeping the first
// and last, sampling the rest evenly.
func subsample(vs []int, max int) []int {
	if max <= 0 || len(vs) <= max {
		return vs
	}
	out := make([]int, 0, max)
	step := float64(len(vs)-1) / float64(max-1)
	last := -1
	for i := 0; i < max; i++ {
		idx := int(float64(i)*step + 0.5)
		if idx != last {
			out = append(out, vs[idx])
			last = idx
		}
	}
	return out
}

// operandBytesFast upper-bounds the per-operand tile sizes of a tiling
// without building the grid.
func operandBytesFast(l layer.Conv, f Factors) (in, wt, out int64) {
	eb := int64(l.ElemBytes)
	inRows := (f.OH-1)*l.StrideH + l.KerH
	if inRows > l.InH {
		inRows = l.InH
	}
	inCols := (f.OW-1)*l.StrideW + l.KerW
	if inCols > l.InW {
		inCols = l.InW
	}
	in = int64(inRows) * int64(inCols) * int64(f.IC) * eb
	wt = int64(l.KerH) * int64(l.KerW) * int64(f.IC) * int64(f.OC) * eb
	out = int64(f.OH) * int64(f.OW) * int64(f.OC) * eb
	return in, wt, out
}

// maxOperandBytesFast upper-bounds the single-op operand footprint of a
// tiling without building the grid.
func maxOperandBytesFast(l layer.Conv, f Factors) int64 {
	in, wt, out := operandBytesFast(l, f)
	return in + wt + out
}

// minSetFootprintFast lower-bounds the scratchpad footprint of one
// full-width operation set of n parallel ops under the best possible
// operand sharing: n ops can share one input tile (input-stationary
// set) or one weight tile (weight-stationary set); output tiles are
// always distinct because two ops of one partial-sum chain can never
// issue together.
func minSetFootprintFast(l layer.Conv, f Factors, n int) int64 {
	in, wt, out := operandBytesFast(l, f)
	shareIn := in + int64(n)*(wt+out)
	shareWt := wt + int64(n)*(in+out)
	if shareIn < shareWt {
		return shareIn
	}
	return shareWt
}

// Enumerate returns the viable tilings of l under lim, deterministic
// across runs. A tiling is viable when a full-width operation set — one
// op per core, under the best possible operand sharing — fits in the
// SPM and the op count is within limits. Flexer composes sets of
// exactly #cores ready operations, so tilings that cannot keep every
// core busy are not valid schedules for the machine.
func Enumerate(l layer.Conv, lim EnumLimits) []Factors {
	if err := l.Validate(); err != nil {
		return nil
	}
	maxOps := lim.MaxOps
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	maxVals := lim.MaxValuesPerDim
	if maxVals <= 0 {
		maxVals = DefaultMaxValuesPerDim
	}
	outH, outW := l.OutH(), l.OutW()
	ohs := subsample(CandidateValues(outH), maxVals)
	ows := subsample(CandidateValues(outW), maxVals)
	ocs := subsample(CandidateValues(l.OutC), maxVals)
	ics := subsample(CandidateValues(l.InC), maxVals)

	var out []Factors
	for _, oh := range ohs {
		nOH := ceilDiv(outH, oh)
		for _, ow := range ows {
			nOW := ceilDiv(outW, ow)
			if nOH*nOW > maxOps {
				continue
			}
			for _, oc := range ocs {
				nOC := ceilDiv(l.OutC, oc)
				if nOH*nOW*nOC > maxOps {
					continue
				}
				for _, ic := range ics {
					nIC := ceilDiv(l.InC, ic)
					if nOH*nOW*nOC*nIC > maxOps {
						continue
					}
					f := Factors{OH: oh, OW: ow, OC: oc, IC: ic}
					cores := lim.Cores
					if cores <= 0 {
						cores = 1
					}
					if minSetFootprintFast(l, f, cores) > lim.SPMBytes {
						continue
					}
					out = append(out, f)
				}
			}
		}
	}
	sortFactors(out)
	if lim.MaxTilings > 0 && len(out) > lim.MaxTilings {
		out = sampleTilings(l, out, lim)
	}
	return out
}

// sortFactors orders tilings canonically. Enumerated tilings are
// pairwise distinct, so the order is total and no sort, stable or not,
// can produce another: slices.SortFunc returns what sort.Slice did,
// without moving the structs through a reflective swapper.
func sortFactors(fs []Factors) {
	slices.SortFunc(fs, func(a, b Factors) int {
		return cmp.Or(cmp.Compare(a.OH, b.OH), cmp.Compare(a.OW, b.OW), cmp.Compare(a.OC, b.OC), cmp.Compare(a.IC, b.IC))
	})
}

// sampleTilings keeps lim.MaxTilings tilings, ranked by how well a full
// set of Cores concurrent ops fills (but does not overflow) the SPM and
// by PE-friendly channel extents, then re-sorted canonically.
func sampleTilings(l layer.Conv, fs []Factors, lim EnumLimits) []Factors {
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
		foot := maxOperandBytesFast(l, f) * int64(cores)
		// fill in (0,1]: 1 means cores ops exactly fill the SPM.
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
	// Descending score, ties in canonical order: a stable sort's result
	// is unique, so this is sort.SliceStable's without its reflection.
	slices.SortStableFunc(sc, func(a, b scored) int { return cmp.Compare(b.s, a.s) })
	// Take the top third by score, and stride-sample the rest for
	// diversity across the space.
	n := lim.MaxTilings
	keep := make([]Factors, 0, n)
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
	sortFactors(keep)
	return keep
}
