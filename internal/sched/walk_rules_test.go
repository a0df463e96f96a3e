package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// The two rules the set walk applies on top of signature pruning — skip
// the subtree of a position whose twin is not in the combination, do not
// place a set whose bound is below the running best — each rest on one
// lemma about stepFacts' per-position table. These tests check the
// lemmas directly, step by step along real schedules, against the
// from-scratch oracle (comboSignature, evalSet); that the walk applying
// them counts and chooses as the full enumeration does is
// TestSetWalkMatchesOracle's and FuzzSetWalk's business.

// twinRichSeeds are FuzzSetWalk inputs that drawWalkCase turns into
// layers of one spatial tile and twelve output-channel tiles, so that
// the window is runs of ops sharing their input tile and differing in
// private, equal-shaped weight and output tiles: on 4 cores under the
// default priority hinted output-stationary, on 8 cores under
// min-transfer hinted input-stationary, and on 2 cores with the cap at 5
// hinted weight-stationary. The rest are grids of row tiles by six
// output-channel tiles, two input-channel tiles deep, whose windows name
// each input and weight tile several times — the windows of tile
// mirrors: three rows on a roomy 4-core machine out of order, two on a
// pressured one hinted weight-stationary with the window cut to 6, and
// three on a pressured 8-core machine under min-transfer with the
// window cut to 12.
var twinRichSeeds = [][]byte{
	{1, 20, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 8, 39, 4, 4, 0, 4, 1, 1, 0},
	{2, 40, 0, 1, 1, 1, 1, 1, 3, 0, 0, 0, 0, 0, 39, 4, 4, 0, 0, 1, 1, 1},
	{0, 8, 0, 0, 0, 2, 1, 1, 0, 2, 1, 0, 0, 4, 39, 4, 4, 0, 0, 1, 1, 2},
	{1, 59, 1, 1, 0, 0, 1, 1, 0, 0, 1, 6, 0, 8, 16, 2, 4, 0, 4, 1, 2, 0},
	{1, 20, 0, 0, 0, 1, 1, 1, 2, 3, 1, 2, 0, 8, 16, 2, 4, 0, 4, 1, 1, 2},
	{2, 30, 0, 1, 1, 2, 1, 1, 3, 0, 1, 6, 0, 8, 16, 2, 4, 0, 4, 1, 2, 0},
}

// twinRichCases are built by hand where drawWalkCase's ranges do not
// reach: one spatial tile by sixteen output-channel tiles by two
// input-channel tiles, hinted by each of the six canonical dataflows and
// unhinted, on a pressured and a roomy 4-core machine; and grids of two
// and three row tiles by six output-channel tiles by two input-channel
// tiles, whose input and weight tiles several window ops name, unhinted
// and hinted output- and weight-stationary, on the same two machines,
// with the default window and with one cut short of a step's ready ops.
func twinRichCases(t *testing.T) []walkCase {
	var cases []walkCase
	for _, kib := range []int64{24, 256} {
		a := arch.New("twins", 4, arch.KiB(kib), 32)
		gr := buildGraph(t, layer.NewConv("t", 8, 8, 32, 64, 3), tile.Factors{OH: 8, OW: 8, OC: 4, IC: 16}, a)
		cases = append(cases, walkCase{name: fmt.Sprintf("twins/%dKiB/ooo", kib), gr: gr, cfg: Config{Arch: a}})
		for _, df := range loop.Canonical() {
			cases = append(cases, walkCase{
				name: fmt.Sprintf("twins/%dKiB/%s", kib, df.Name), gr: gr,
				cfg: Config{Arch: a, Hint: loop.Order(gr, df), MemPolicy: spm.Policy(len(cases) % 3)},
			})
		}
		for _, rows := range []int{2, 3} {
			gr := buildGraph(t, layer.NewConv("g", 4*rows, 8, 32, 96, 3), tile.Factors{OH: 4, OW: 8, OC: 16, IC: 16}, a)
			for _, window := range []int{0, 5*rows - 1} {
				for _, hint := range []int{-1, 0, 2} {
					cfg := Config{Arch: a, MaxReadyWindow: window}
					name := fmt.Sprintf("grid%dx6/%dKiB/w%d/ooo", rows, kib, window)
					if hint >= 0 {
						df := loop.Canonical()[hint]
						cfg.Hint, name = loop.Order(gr, df), fmt.Sprintf("grid%dx6/%dKiB/w%d/%s", rows, kib, window, df.Name)
					}
					cases = append(cases, walkCase{name: name, gr: gr, cfg: cfg})
				}
			}
		}
	}
	return cases
}

// ruleCases returns the out-of-order draws of TestSetWalkMatchesOracle's
// source (static orders form no candidate sets) followed by the
// twin-rich ones.
func ruleCases(t *testing.T, draws int) []walkCase {
	rng := rand.New(rand.NewSource(19))
	var cases []walkCase
	for len(cases) < draws {
		if c, ok := drawWalkCase(rng.Intn); ok && c.cfg.Order == nil {
			cases = append(cases, c)
		}
	}
	for _, seed := range twinRichSeeds {
		c, ok := drawWalkCase(fuzzDraws(seed))
		if !ok || c.cfg.Order != nil || c.cfg.DisablePruning {
			t.Fatalf("twin-rich seed %v does not draw an out-of-order, pruning case: %v %s", seed, ok, c.name)
		}
		cases = append(cases, c)
	}
	return append(cases, twinRichCases(t)...)
}

// forEachStep schedules c and calls visit before every step with the
// step's window, e.facts describing it.
func forEachStep(t *testing.T, c walkCase, visit func(e *engine, window []int)) {
	e := newTestEngine(t, c.gr, c.cfg)
	for e.nDone < len(c.gr.Ops) {
		e.mem.UnpinAll()
		window := e.selectWindow()
		e.stepFacts(window, true)
		visit(e, window)
		if err := e.step(); err != nil {
			if err != errNoProgress {
				t.Fatalf("%s: %v", c.name, err)
			}
			return
		}
	}
}

// sampled calls visit with combinations of k of n positions, all of them
// when there are at most budget and evenly spaced ones otherwise.
func sampled(n, k, budget int, visit func(combo []int)) {
	total := 1
	for i := 0; i < k; i++ {
		total = total * (n - i) / (i + 1)
	}
	stride, at := max(1, total/budget), 0
	forEachCombo(n, k, func(combo []int) {
		if at%stride == 0 {
			visit(combo)
		}
		at++
	})
}

// TestTwinSwapKeepsSignature is the symmetry lemma: for every pair of
// interchangeable window positions i < j of every step — j's twin, the
// twin's twin, and so on — and every combination up to #cores wide
// holding j but not i (every one where a width has at most 40, evenly
// spaced ones beyond), the combination and its image with i in j's
// place have the same from-scratch signature. The image is the
// lexicographically earlier of the two, which is why the walk may count
// the later one as pruned without visiting it.
func TestTwinSwapKeepsSignature(t *testing.T) {
	draws := 90
	if testing.Short() {
		draws = 25
	}
	steps, twinned, pairs, checked := 0, 0, 0, 0
	for _, c := range ruleCases(t, draws) {
		if c.cfg.DisablePruning {
			continue
		}
		forEachStep(t, c, func(e *engine, window []int) {
			steps++
			f, n := &e.facts, len(window)
			for j := range window {
				if f.twin[j] >= j {
					t.Fatalf("%s: position %d has twin %d, not an earlier one", c.name, j, f.twin[j])
				}
				if f.twin[j] >= 0 {
					twinned++
				}
				for i := f.twin[j]; i >= 0; i = f.twin[i] {
					pairs++
					for k := 0; k < c.cfg.Arch.Cores && k <= n-2; k++ {
						sampled(n-2, k, 40, func(rest []int) {
							with, image := []int{j}, []int{i}
							for _, p := range rest { // positions other than i and j
								if p >= i {
									p++
								}
								if p >= j {
									p++
								}
								with, image = append(with, p), append(image, p)
							}
							checked++
							if a, b := e.comboSignature(with), e.comboSignature(image); !slices.Equal(a, b) {
								t.Fatalf("%s: window %v: positions %d and %d are twins, but %v signs %x and %v signs %x",
									c.name, window, i, j, with, a, image, b)
							}
						})
					}
				}
			}
		})
	}
	t.Logf("%d steps, %d positions with a twin, %d interchangeable pairs, %d combinations swapped", steps, twinned, pairs, checked)
	if pairs == 0 || checked < 10*pairs {
		t.Error("the draw found too few interchangeable pairs to say anything")
	}
}

// TestMirrorSwapKeepsSignature is the tile-symmetry lemma: for every
// tile t' of every step that mirrors a tile t (stepFacts.mirror), and
// every combination up to #cores wide that the walk skips for it — one
// holding an op naming t' and no op naming t below it (every one where a
// width has at most 40, evenly spaced ones beyond) — the combination and
// its image with each op naming t swapped for its partner naming t', the
// k-th for the k-th, and vice versa, have the same from-scratch
// signature, and the image is the lexicographically earlier of the two.
func TestMirrorSwapKeepsSignature(t *testing.T) {
	draws := 90
	if testing.Short() {
		draws = 25
	}
	steps, mirrors, checked := 0, 0, 0
	for _, c := range ruleCases(t, draws) {
		if c.cfg.DisablePruning {
			continue
		}
		forEachStep(t, c, func(e *engine, window []int) {
			steps++
			f, n := &e.facts, len(window)
			for t2, t1 := range f.mirror {
				if t1 < 0 {
					continue
				}
				mirrors++
				slot := int(f.keys[t2] >> 62)
				var ops1, ops2 []int // window positions naming t1 and t2, ascending
				for wi, ts := range f.ops {
					switch ts[slot] {
					case t1:
						ops1 = append(ops1, wi)
					case int32(t2):
						ops2 = append(ops2, wi)
					}
				}
				if len(ops1) != len(ops2) {
					t.Fatalf("%s: tile %d mirrors tile %d, but %d window ops name it and %d the other", c.name, t2, t1, len(ops2), len(ops1))
				}
				swap := map[int]int{}
				for k := range ops1 {
					swap[ops1[k]], swap[ops2[k]] = ops2[k], ops1[k]
				}
				for _, q := range ops2 {
					for k := 0; k < c.cfg.Arch.Cores && k <= n-1; k++ {
						sampled(n-1, k, 40, func(rest []int) {
							with := []int{q}
							for _, p := range rest { // positions other than q
								if p >= q {
									p++
								}
								if p < q && slices.Contains(ops1, p) {
									return // names t1 below q: the walk does not skip it for q
								}
								with = append(with, p)
							}
							image := make([]int, len(with))
							for i, p := range with {
								image[i] = p
								if s, ok := swap[p]; ok {
									image[i] = s
								}
							}
							slices.Sort(with)
							slices.Sort(image)
							checked++
							if a, b := e.comboSignature(with), e.comboSignature(image); !slices.Equal(a, b) {
								t.Fatalf("%s: window %v: tile %d mirrors tile %d, but %v signs %x and its image %v signs %x",
									c.name, window, t2, t1, with, a, image, b)
							}
							if slices.Compare(image, with) >= 0 {
								t.Fatalf("%s: window %v: tile %d mirrors tile %d, but the image %v of %v does not come first",
									c.name, window, t2, t1, image, with)
							}
						})
					}
				}
			}
		})
	}
	t.Logf("%d steps, %d mirroring tiles, %d combinations swapped", steps, mirrors, checked)
	if mirrors == 0 || checked < 10*mirrors {
		t.Error("the draw found too few mirroring tiles to say anything")
	}
}

// TestPositionBoundCoversBenefit is the bound lemma: for every candidate
// set of every step that the oracle's evalSet places (every combination
// where a width has at most 40, evenly spaced ones beyond), the
// per-position bounds of its ops add up to at least its memory benefit.
// The draw must have met what makes that more than a restatement of
// touch: sets that gather, sets in which an earlier op evicts an operand
// of a later one that was resident when the step began (the later op
// reloads it and is credited nothing), sets that reach their bound and
// sets that stay below it.
func TestPositionBoundCoversBenefit(t *testing.T) {
	draws := 90
	if testing.Short() {
		draws = 25
	}
	placed, gathers, evictedOperand, tight, slack := 0, 0, 0, 0, 0
	for _, c := range ruleCases(t, draws) {
		forEachStep(t, c, func(e *engine, window []int) {
			var set []int
			for k := 1; k <= min(c.cfg.Arch.Cores, len(window)); k++ {
				sampled(len(window), k, 40, func(combo []int) {
					var bound int64
					set = set[:0]
					for _, wi := range combo {
						set, bound = append(set, window[wi]), bound+e.facts.bound[wi]
					}
					ev := e.evalSet(set)
					if ev == nil {
						return
					}
					defer e.releaseEval(ev)
					placed++
					if ev.benefit() > bound {
						t.Fatalf("%s: set %v has benefit %d (reused %d, spill cost %d) above its bound %d",
							c.name, set, ev.benefit(), ev.reused, ev.spillCost, bound)
					}
					if ev.reused == bound {
						tight++
					} else {
						slack++
					}
					if slices.ContainsFunc(ev.loads, func(ld loadRec) bool { return ld.gather }) {
						gathers++
					}
					if slices.ContainsFunc(ev.spills, func(sp spm.Eviction) bool {
						return slices.ContainsFunc(set, func(op int) bool {
							o := &c.gr.Ops[op]
							return sp.ID == o.In || sp.ID == o.Wt || sp.ID == o.Out
						})
					}) {
						evictedOperand++
					}
				})
			}
		})
	}
	t.Logf("%d sets placed: %d gather, %d evict an operand of their own, %d reach their bound, %d stay below",
		placed, gathers, evictedOperand, tight, slack)
	if gathers == 0 || evictedOperand == 0 || tight == 0 || slack == 0 {
		t.Error("the draw missed one of: a gathering set, a set evicting its own operand, a tight bound, a slack bound")
	}
}
