package tile

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

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
	// (0 means DefaultMaxValuesPerDim, a negative value no cap).
	MaxValuesPerDim int
}

// Defaults for EnumLimits fields left zero.
const (
	DefaultMaxOps          = 4096
	DefaultMaxValuesPerDim = 10
)

// appendCandidateValues appends to dst the distinct useful tile extents
// for a dimension of the given total size: for every possible block
// count n, the smallest extent ceil(total/n) realizing it. They are
// appended ascending, O(sqrt(total)) of them.
func appendCandidateValues(dst []int, total int) []int {
	start := len(dst)
	// Extents fall as the block count rises: start from one block, step
	// to the first count whose extent is smaller, take that extent.
	for v := total; v >= 1; v = ceilDiv(total, ceilDiv(total, v-1)) {
		dst = append(dst, v)
		if v == 1 {
			break
		}
	}
	slices.Reverse(dst[start:])
	return dst
}

// subsample reduces vs to at most max values, always keeping the first
// and last, sampling the rest evenly; at max 1 it keeps the last alone,
// the whole dimension. It samples in place: the values kept are written
// over vs's first ones, in order, and the result is vs's prefix or tail.
func subsample(vs []int, max int) []int {
	if max <= 0 || len(vs) <= max {
		return vs
	}
	if max == 1 {
		return vs[len(vs)-1:]
	}
	out := vs[:0] // the j-th value kept is read from position j or later
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

// operandBytesFast upper-bounds the per-operand tile sizes of the
// tiling c cuts l into, from its full blocks: the largest tile of each
// kind, its halo clipped to the input's extent only.
func operandBytesFast(l *layer.Conv, c *Cuts) (in, wt, out int64) {
	eb := int64(l.ElemBytes)
	oh, ow, oc, ic := &c.Dim[0], &c.Dim[1], &c.Dim[2], &c.Dim[3]
	in = int64(oh.Span) * int64(ow.Span) * int64(ic.Per) * eb
	wt = int64(l.KerH) * int64(l.KerW) * int64(ic.Per) * int64(oc.Per) * eb
	out = int64(oh.Per) * int64(ow.Per) * int64(oc.Per) * eb
	return in, wt, out
}

// maxOperandBytesFast upper-bounds the single-op operand footprint of a
// tiling without building the grid.
func maxOperandBytesFast(l *layer.Conv, c *Cuts) int64 {
	in, wt, out := operandBytesFast(l, c)
	return in + wt + out
}

// minSetFootprintFast lower-bounds the scratchpad footprint of one
// full-width operation set of n parallel ops under the best possible
// operand sharing: n ops can share one input tile (input-stationary
// set) or one weight tile (weight-stationary set); output tiles are
// always distinct because two ops of one partial-sum chain can never
// issue together.
func minSetFootprintFast(l *layer.Conv, c *Cuts, n int) int64 {
	in, wt, out := operandBytesFast(l, c)
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
	buf := enumBufs.Get().(*enumBuf)
	cores := max(lim.Cores, 1)
	// One key per viable tiling, not its Factors: the tilings come in
	// canonical order, and so does the mixed-radix index of their four
	// values that each key holds.
	ks := buf.keys
	buf.walk(&l, lim, false, func(i int, c *Cuts) {
		ks = append(ks, sampleKey{sampleScore(&l, c, lim.SPMBytes, cores), int64(i)})
	})
	if n := lim.MaxTilings; n > 0 && len(ks) > n {
		ks = sampleTilings(ks, n)
	}
	oh, ow, oc, ic := buf.sample[0], buf.sample[1], buf.sample[2], buf.sample[3]
	out := make([]Factors, len(ks))
	for j, k := range ks {
		i := int(k.i)
		out[j] = Factors{oh[i/len(ic)/len(oc)/len(ow)], ow[i/len(ic)/len(oc)%len(ow)], oc[i/len(ic)%len(oc)], ic[i%len(ic)]}
	}
	buf.keys = ks[:0]
	enumBufs.Put(buf)
	return out
}

// Walk calls visit with the cuts of every viable tiling of the valid
// layer l under lim, as Enumerate finds them, in canonical order and
// with no sample: MaxTilings is not read. The cuts are read only during
// the call. A negative MaxValuesPerDim takes every candidate value.
func Walk(l layer.Conv, lim EnumLimits, visit func(c *Cuts)) {
	buf := enumBufs.Get().(*enumBuf)
	buf.walk(&l, lim, true, func(_ int, c *Cuts) { visit(c) })
	enumBufs.Put(buf)
}

// walk is Enumerate's loop: it lists and subsamples each dimension's
// candidate values, into e.sample, and cuts the layer at each value
// once, with classes only if asked for; then it calls visit with every
// viable tiling's cuts and the mixed-radix index of its four values
// (ascending extents, outermost loop first: canonical order, ascending
// (OH, OW, OC, IC)). The op caps prune whole subtrees; the viability
// test reads the same cuts.
func (e *enumBuf) walk(l *layer.Conv, lim EnumLimits, classes bool, visit func(i int, c *Cuts)) {
	maxOps := lim.MaxOps
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	maxVals := lim.MaxValuesPerDim
	if maxVals == 0 {
		maxVals = DefaultMaxValuesPerDim
	}
	e.vals = e.vals[:0]
	n := 0
	for d := range e.sample {
		total, _, _, _, _ := dimOf(l, d)
		start := len(e.vals)
		e.vals = appendCandidateValues(e.vals, total)
		e.sample[d] = subsample(e.vals[start:], maxVals)
		n += len(e.sample[d])
	}
	var local [64]Cut // a search's cuts fit: nothing to allocate where the pool was emptied
	cuts := local[:0]
	e.classes = e.classes[:0]
	if n > len(local) {
		e.cuts = slices.Grow(e.cuts[:0], n)
		cuts = e.cuts
	}
	var dims [4][]Cut
	for d, vs := range e.sample {
		first := len(cuts)
		for _, v := range vs {
			c := cutOf(l, d, v)
			if classes {
				c, e.classes = appendCut(e.classes, l, d, v)
			}
			cuts = append(cuts, c)
		}
		dims[d] = cuts[first:]
	}
	cores := max(lim.Cores, 1)
	c := &e.tiling // visit's, so it escapes: pooled, not allocated
	c.classes = e.classes
	d0, d1, d2, d3 := dims[0], dims[1], dims[2], dims[3]
	for a := range d0 {
		c.Dim[0] = d0[a]
		for b := range d1 {
			if c.Dim[1] = d1[b]; d0[a].N*d1[b].N > maxOps {
				continue
			}
			for k := range d2 {
				if c.Dim[2] = d2[k]; d0[a].N*d1[b].N*d2[k].N > maxOps {
					continue
				}
				for i := range d3 {
					if c.Dim[3] = d3[i]; d0[a].N*d1[b].N*d2[k].N*d3[i].N <= maxOps && minSetFootprintFast(l, c, cores) <= lim.SPMBytes {
						visit(((a*len(d1)+b)*len(d2)+k)*len(d3)+i, c)
					}
				}
			}
		}
	}
}

// enumBuf is Enumerate's scratch: the keys of the viable tilings; the
// candidate values of the four dimensions back to back, and each
// dimension's sample of them; the cuts at the values sampled where they
// outgrow walk's stack, and the cuts' classes; the tiling the walk is
// at.
type enumBuf struct {
	keys    []sampleKey
	vals    []int
	sample  [4][]int
	cuts    []Cut
	classes []Class
	tiling  Cuts
}

// enumBufs recycles Enumerate's scratch.
var enumBufs = sync.Pool{New: func() any { return new(enumBuf) }}

// sampleScore ranks a tiling for the sample: how well a full set of
// cores concurrent ops fills (but does not overflow) the SPM, plus a
// bonus for each PE-friendly channel extent.
func sampleScore(l *layer.Conv, c *Cuts, spm int64, cores int) float64 {
	// fill in (0,1]: 1 means cores ops exactly fill the SPM.
	fill := float64(maxOperandBytesFast(l, c)*int64(cores)) / float64(spm)
	if fill > 1 {
		fill = 1 / fill
	}
	align := 0.0
	if oc := c.Dim[2].Per; oc%16 == 0 || oc == l.OutC {
		align += 0.10
	}
	if ic := c.Dim[3].Per; ic%16 == 0 || ic == l.InC {
		align += 0.10
	}
	return fill + align
}

// sampleTilings keeps n of the keys ks, which hold more and are in
// canonical order, and returns them in that order: the top third by
// score, then an even stride through the rest in score order for
// diversity across the space.
func sampleTilings(ks []sampleKey, n int) []sampleKey {
	// The sample reads n ranks of the order; nearly every tiling would be
	// sorted only to be passed over, so only those ranks are resolved.
	top := max(n/3, 1)
	ranks := append(make([]int, 0, n), top-1) // puts the top third, in any order, before it
	rest := len(ks) - top
	if need := n - top; need > 0 {
		step := max(float64(rest)/float64(need), 1)
		for i := 0.0; int(i) < rest && len(ranks) < need+1; i += step {
			ranks = append(ranks, top+int(i))
		}
	}
	selectRanks(ks, 0, len(ks), ranks, 2*bits.Len(uint(len(ks))))
	// The stride's ranks ascend from top, so each moves down over keys read.
	for j, r := range ranks[1:] {
		ks[top+j] = ks[r]
	}
	ks = ks[:top+len(ranks)-1]
	slices.SortFunc(ks, func(a, b sampleKey) int { return cmp.Compare(a.i, b.i) })
	return ks
}

// sampleKey ranks one tiling of a sample: by score, descending, and
// among equal scores by canonical position (its index) — the order a
// stable sort by score gives, and a total one.
type sampleKey struct {
	s float64
	i int64
}

func (a sampleKey) before(b sampleKey) bool { return a.s > b.s || a.s == b.s && a.i < b.i }

// selectRanks permutes ks[lo:hi] until each position in ranks (ascending,
// within [lo, hi)) holds the key a sort would put there, with the keys
// ranking before it on its left: a quickselect around the middle key
// that descends only into the sides holding a wanted rank, and sorts a
// range outright once it is small or depth pivots have not made it so.
func selectRanks(ks []sampleKey, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 && hi-lo > 1 {
		if depth--; depth < 0 || hi-lo <= 12 {
			slices.SortFunc(ks[lo:hi], func(a, b sampleKey) int {
				return cmp.Or(cmp.Compare(b.s, a.s), cmp.Compare(a.i, b.i))
			})
			return
		}
		mid := lo + (hi-lo)/2
		ks[mid], ks[hi-1] = ks[hi-1], ks[mid]
		pivot, p := ks[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if ks[i].before(pivot) {
				ks[i], ks[p] = ks[p], ks[i]
				p++
			}
		}
		ks[p], ks[hi-1] = ks[hi-1], ks[p]
		i, found := slices.BinarySearch(ranks, p)
		selectRanks(ks, lo, p, ranks[:i], depth)
		if found {
			i++
		}
		lo, ranks = p+1, ranks[i:]
	}
}
