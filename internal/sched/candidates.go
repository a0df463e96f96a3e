package sched

import (
	"cmp"
	"slices"

	"github.com/flexer-sched/flexer/internal/tile"
)

// nextSetOoO forms the next operation set out of order: it ranks the
// ready queue, walks the candidate combinations of up to #cores ops
// from the best-ranked window, prunes duplicates with identical
// dataflow maps, evaluates the survivors, and returns the highest
// priority feasible set. Every set width competes: under the default
// priority a narrower set can legitimately beat a full-width one when
// the extra ops would thrash the scratchpad (benefit ranks above
// width), and when no full-width set fits only narrower ones are
// feasible. It returns nil only if not even a single op can be made
// resident.
func (e *engine) nextSetOoO() *setEval {
	window := e.selectWindow()
	prune := !e.cfg.DisablePruning
	if prune {
		e.seen.reset()
		e.stepFacts(window, true)
	}
	best := e.walkSets(window, min(e.cfg.Arch.Cores, len(window)))
	if best == nil && len(window) < len(e.ready) {
		// Nothing from the window fits; fall back to single ops from
		// the whole ready queue before reporting failure.
		if prune {
			e.stepFacts(e.ready, false)
		}
		best = e.walkSets(e.ready, 1)
	}
	return best
}

// setWalk is the state of one walk over candidate sets: the current
// combination, and for each of its prefixes what the prefix has in
// common with every set that extends it — its dataflow-map signature,
// and its operands placed in the engine's scratchpad under one
// checkpoint per op. In-order set formation uses the placement half.
type setWalk struct {
	cur    setEval // ops of the current combination; loads, spills and sums of its placed prefix
	combo  []int   // window positions of cur.ops
	marks  []mark  // per placed op: cur as it was before the op
	placed int     // leading ops of cur.ops placed, each under its own open checkpoint
	failed int     // length of the shortest prefix of cur.ops that does not fit, 0 if none is known
	left   []int   // per set width: evaluations left under MaxCandidateSets

	// sig holds the signatures of cur's prefixes back to back, the
	// prefix of d ops starting at sigAt[d] (the empty one included): a
	// sorted run of packed keys, see stepFacts.
	sig   []uint64
	sigAt []int
}

// mark is what placing one op can change of the walk's evaluation.
type mark struct {
	sums
	loads, spills, fresh int
}

// walkSets visits the combinations of 1..maxSize positions of window in
// pre-order — a combination right after the one it extends by its last
// op — prunes those whose dataflow map has been seen this step,
// evaluates the rest, at most MaxCandidateSets of each width, and
// returns the best feasible evaluation (nil if none). Restricted to one
// width, pre-order is lexicographic order, so each width sees the
// candidates, in the order, that enumerating it alone would; one
// running best does for all widths because less is a total order on
// distinct sets. What the order buys is that a candidate's prefix was
// visited just before it: its signature is the prefix's with three
// tiles' reference counts bumped (push), and its placement is the
// prefix's — still in the scratchpad — plus one op (placeTo). With
// pruning on, e.facts must describe window (stepFacts) and e.seen
// carries the step's signatures; two rules then spare work, every count
// and the winner unchanged. A position that would extend the combination
// by a duplicate (stepFacts.duplicates) roots a subtree of duplicates —
// each set of it signs as an earlier one: counted as pruned, not
// visited. A new set that cannot beat the running best (cannotWin) is
// counted as evaluated, not placed. Every checkpoint it opens is closed
// when it returns.
func (e *engine) walkSets(window []int, maxSize int) *setEval {
	w := &e.walk
	e.beginWalk()
	w.left = append(w.left[:0], 0) // width 0: no empty set
	for size := 1; size <= maxSize; size++ {
		w.left = append(w.left, e.cfg.MaxCandidateSets)
	}
	prune := !e.cfg.DisablePruning
	var best *setEval
	// open is the widest width with evaluations left — nothing deeper is
	// worth visiting — and next the window position that extends the
	// current combination next.
	for open, next := maxSize, 0; ; {
		d := len(w.combo)
		if d >= open || next >= len(window) {
			if d == 0 {
				return best
			}
			next = e.pop(prune) + 1 // on to the sibling
			continue
		}
		if prune && e.facts.duplicates(next, w.combo) {
			// The subtree holds C(m, k) sets k ops wider than its root, all
			// duplicates: they spend no evaluation, so left and open stand.
			m := len(window) - next - 1
			for c, k := 1, 0; d+1+k <= open; c, k = c*(m-k)/(k+1), k+1 {
				if w.left[d+1+k] > 0 {
					e.nPruned += c
				}
			}
			next++
			continue
		}
		e.push(window[next], next, prune)
		next++
		d++
		if w.left[d] == 0 {
			continue // this width is spent: on the way to a wider set only
		}
		if prune && !e.seen.add(w.sig[w.sigAt[d]:]) {
			e.nPruned++
			continue
		}
		w.left[d]--
		e.nEval++
		if !(prune && best != nil && e.cannotWin(best)) && e.placeTo(d) {
			w.cur.util = e.mem.Utilization()
			if best == nil || e.less(&w.cur, best) {
				best = e.snapshot(best)
			}
		}
		for open > 0 && w.left[open] == 0 {
			open--
		}
	}
}

// cannotWin reports whether the current combination ranks below best
// however its placement turns out: under the width-first priorities
// when it is narrower, under the default one when the bounds of its ops
// (stepFacts) add up to less than best's benefit — touch credits reuse
// once per op and operand on-chip before the set, and spill cost is
// never negative, so that sum is the most its own benefit can reach.
func (e *engine) cannotWin(best *setEval) bool {
	if e.cfg.Priority != PriorityDefault {
		return len(e.walk.combo) < len(best.ops)
	}
	var bound int64
	for _, wi := range e.walk.combo {
		bound += e.facts.bound[wi]
	}
	return bound < best.benefit()
}

// beginWalk empties the walk state: no op chosen, none placed.
func (e *engine) beginWalk() {
	w := &e.walk
	w.cur = setEval{ops: w.cur.ops[:0], loads: w.cur.loads[:0], spills: w.cur.spills[:0]}
	w.combo, w.marks, w.placed, w.failed = w.combo[:0], w.marks[:0], 0, 0
	w.sig, w.sigAt = w.sig[:0], append(w.sigAt[:0], 0)
	e.fresh = e.fresh[:0]
}

// push extends the current combination by op, at window position wi,
// and — with sign — derives its signature from the one it extends: a
// copy of that sorted run in which each of the op's three tiles has its
// key's reference count raised by one, or enters with count one. A key
// whose count goes up moves nowhere: the last of its equals is raised,
// and whatever follows was larger already.
func (e *engine) push(op, wi int, sign bool) {
	w := &e.walk
	w.combo = append(w.combo, wi)
	w.cur.ops = append(w.cur.ops, op)
	if !sign {
		return
	}
	f := &e.facts
	start := len(w.sig)
	w.sig = append(w.sig, w.sig[w.sigAt[len(w.sigAt)-1]:]...)
	w.sigAt = append(w.sigAt, start)
	for _, t := range f.ops[wi] {
		n := f.count[t]
		f.count[t] = n + 1
		if n > 0 {
			k := f.keys[t] | uint64(n)
			i := len(w.sig) - 1
			for w.sig[i] != k {
				i--
			}
			w.sig[i]++
			continue
		}
		k := f.keys[t] | 1
		w.sig = append(w.sig, k)
		i := len(w.sig) - 1
		for ; i > start && w.sig[i-1] > k; i-- {
			w.sig[i] = w.sig[i-1]
		}
		w.sig[i] = k
	}
}

// pop drops the last op of the current combination, taking its
// placement back if it was placed, and returns its window position.
func (e *engine) pop(signed bool) int {
	w := &e.walk
	d := len(w.combo)
	if w.placed == d {
		e.unplace()
	}
	if w.failed == d {
		w.failed = 0
	}
	wi := w.combo[d-1]
	w.combo, w.cur.ops = w.combo[:d-1], w.cur.ops[:d-1]
	if signed {
		w.sig, w.sigAt = w.sig[:w.sigAt[d]], w.sigAt[:d]
		for _, t := range e.facts.ops[wi] {
			e.facts.count[t]--
		}
	}
	return wi
}

// placeTo makes the first d ops of the current combination placed in
// the scratchpad, placing only those that are not yet — lazily, so a
// prefix no evaluated set extends is never placed — and reports whether
// they fit. A prefix that does not is remembered until it is popped:
// the sets extending it are infeasible without placing anything.
func (e *engine) placeTo(d int) bool {
	w := &e.walk
	if w.failed != 0 {
		return false
	}
	for w.placed < d {
		w.marks = append(w.marks[:w.placed], mark{sums: w.cur.sums, loads: len(w.cur.loads), spills: len(w.cur.spills), fresh: len(e.fresh)})
		e.mem.Checkpoint()
		w.placed++
		if !e.placeOp(&w.cur, w.cur.ops[w.placed-1]) {
			e.unplace()
			w.failed = w.placed + 1
			return false
		}
	}
	return true
}

// unplace takes back the placement of the last placed op.
func (e *engine) unplace() {
	w := &e.walk
	w.placed--
	e.mem.Rollback()
	m := &w.marks[w.placed]
	w.cur.sums = m.sums
	w.cur.loads, w.cur.spills, e.fresh = w.cur.loads[:m.loads], w.cur.spills[:m.spills], e.fresh[:m.fresh]
}

// snapshot copies the walk's current evaluation into into (a recycled
// evaluation when nil) and returns it.
func (e *engine) snapshot(into *setEval) *setEval {
	if into == nil {
		into = e.getEval()
	}
	cur := &e.walk.cur
	into.ops = append(into.ops[:0], cur.ops...)
	into.loads = append(into.loads[:0], cur.loads...)
	into.spills = append(into.spills[:0], cur.spills...)
	into.sums, into.util = cur.sums, cur.util
	return into
}

// windowOp is a ready op with the key selectWindow orders it by.
type windowOp struct {
	bytes int64 // operand bytes on-chip, 0 under a hint
	rank  int
	op    int
}

// compare orders the window: more operand bytes on-chip first, then the
// lower rank. Ranks are distinct, so the order is total.
func (a windowOp) compare(b windowOp) int {
	return cmp.Or(cmp.Compare(b.bytes, a.bytes), cmp.Compare(a.rank, b.rank))
}

// selectWindow returns the most promising ready ops, at most
// MaxReadyWindow, best first. In pure OoO mode ops are ranked by the
// bytes of their operands already resident (aligning the window with
// the memory-benefit priority), then by rank. With a dataflow hint, the
// window follows the hint order outright — the run explores
// combinations around the loop order, deviating only where the set
// priority says so, which is how Algorithm 1's per-dataflow GetSchedule
// stays anchored to its dataflow. The order being total, the window is
// the prefix of the sorted ready queue, but nothing else is sorted: one
// pass inserts each op into the kept ones, best first, and drops what
// falls off the end — or, when the window holds the whole queue, keeps
// all and sorts them. e.ready keeps its order. The returned slice is
// engine scratch, valid until the next call.
func (e *engine) selectWindow() []int {
	k, all := e.cfg.MaxReadyWindow, len(e.ready) <= e.cfg.MaxReadyWindow
	kept := e.kept[:0]
	for _, op := range e.ready {
		c := windowOp{rank: e.rank[op], op: op}
		if e.cfg.Hint == nil {
			c.bytes = e.residentBytes(op)
		}
		if all {
			kept = append(kept, c)
			continue
		}
		if len(kept) == k {
			if c.compare(kept[k-1]) > 0 {
				continue
			}
			kept = kept[:k-1]
		}
		i := len(kept)
		for kept = append(kept, c); i > 0 && c.compare(kept[i-1]) < 0; i-- {
			kept[i] = kept[i-1]
		}
		kept[i] = c
	}
	if all {
		slices.SortFunc(kept, windowOp.compare)
	}
	e.window, e.kept = e.window[:0], kept
	for _, c := range kept {
		e.window = append(e.window, c.op)
	}
	if e.opOrderSame && len(e.window) > 0 {
		// The op-order prefix: ascending, no ready op below its last left out.
		last, below := e.window[len(e.window)-1], 0
		for _, op := range e.ready {
			if op <= last {
				below++
			}
		}
		e.opOrderSame = below == len(e.window) && slices.IsSorted(e.window)
	}
	return e.window
}

// residentBytes is the bytes of op's operands on-chip: its input and
// weight tiles, and its output tile when it reads a partial sum.
func (e *engine) residentBytes(op int) int64 {
	var bytes int64
	for s, n := range e.gr.Operands(op) {
		if (s < 2 || e.gr.Ops[op].ReadsPsum) && e.mem.HasNum(n) {
			bytes += e.gr.SizeOf(n)
		}
	}
	return bytes
}

// Residency states of an operand tile in the dataflow-map signature.
// A gatherable tile is a fused consumer input currently assemblable
// on-chip: it moves no off-chip data, unlike a same-sized DRAM load.
const (
	tileAbsent uint64 = iota
	tileResident
	tileGatherable
)

// sigCountBits is the width of the reference-count field in a packed
// signature key: kind (2 bits) | state (2) | size (44) | count (16) —
// room for 16 TiB tiles and 65 535-op sets, beyond any real machine.
const sigCountBits = 16

// stepFacts is what one scheduling step knows about the operand tiles
// of its window, looked up once: the signature key of every distinct
// tile and, per window position, the numbers of the op's three tiles.
// Signatures of all candidate combinations of the step are computed
// from this table alone — no scratchpad or graph access per candidate.
//
// A candidate set is classified by its dataflow map (Section 4.2): for
// every distinct operand tile, its kind, residency, byte size and the
// number of ops in the set referencing it (output tiles: first writes
// and psum continuations are told apart by residency + count) — as a
// sorted run of packed keys; tile identity is deliberately not part of
// it. Sets with equal signatures move the same data and are
// interchangeable for the priority function, so duplicates are pruned.
//
// Two window positions are interchangeable when operand by operand they
// name one tile, or two tiles of equal key that no other window op
// names: a set holding the later but not the earlier then signs as the
// set with the earlier in its place. The relation is transitive; twin is
// the nearest earlier interchangeable position, -1 if none.
//
// The same holds of whole operand tiles. An In or Wt tile t' mirrors a
// tile t of equal key when the window ops naming t' pair one to one with
// those naming t, each t' op with a t op at an earlier position, and in
// each other operand slot a pair names one tile, or two tiles of equal
// key that no other window op names (see duplicates). mirror is the
// nearest such t, -1 if none.
type stepFacts struct {
	tiles  []int32    // per tile: its graph number, for de-duplication
	slot   []int32    // by graph number: 1 + the tile's number here while stepFacts runs, else 0
	keys   []uint64   // per tile: packed kind, state and size, count zero
	refs   []uint16   // per tile: window ops naming it
	count  []uint16   // per tile: references from the walk's current combination, zero between walks
	mirror []int32    // per tile, see above
	multi  []int32    // findMirrors: the In and Wt tiles two window ops or more name
	at     []int32    // window positions grouped by tile: tile t's, ascending, from start[t]
	start  []int32    // per tile: its first entry in at
	ops    [][3]int32 // per window position: tile numbers of In, Wt, Out
	twin   []int      // per window position, see above
	bound  []int64    // per window position: the most the op can add to a set's reused bytes
}

// duplicates reports whether every set S extending combo (window
// positions) by position wi signs as an earlier set of its width: wi's
// twin is not in combo, or wi names a tile t' mirroring a tile t that
// combo names nowhere. Swapping each pair of a t and a t' op keeps every
// key's count or trades it for an equal key's. S has no t op below wi, so
// the lowest position the swap changes is a t' op of S's, moved down.
func (f *stepFacts) duplicates(wi int, combo []int) bool {
	if t := f.twin[wi]; t >= 0 && !slices.Contains(combo, t) {
		return true
	}
	ts := f.ops[wi]
	return f.mirror[ts[0]] >= 0 && f.count[f.mirror[ts[0]]] == 0 || f.mirror[ts[1]] >= 0 && f.count[f.mirror[ts[1]]] == 0
}

// stepFacts fills e.facts for window from the current scratchpad. With
// dedup, a tile shared by several window ops gets one number, so that
// combinations count references to it; the single-op fallback over the
// whole ready queue needs no sharing, skips the scans for twins and
// mirrors and so has none. Tiles are numbered here as first met, through
// slot, which they leave all zero again: a step pays for its window's
// tiles, not for the graph's.
func (e *engine) stepFacts(window []int, dedup bool) {
	f := &e.facts
	f.tiles, f.keys, f.refs, f.mirror, f.ops, f.twin, f.bound = f.tiles[:0], f.keys[:0], f.refs[:0], f.mirror[:0], f.ops[:0], f.twin[:0], f.bound[:0]
	if dedup && len(f.slot) < e.gr.NumTiles() {
		f.slot = make([]int32, e.gr.NumTiles())
	}
	number := func(id *tile.ID, n int32) int32 {
		if dedup {
			if i := f.slot[n]; i != 0 {
				f.refs[i-1]++
				return i - 1
			}
			f.tiles = append(f.tiles, n)
			f.slot[n] = int32(len(f.tiles))
		}
		state := tileAbsent
		if e.mem.HasNum(n) {
			state = tileResident
		} else if id.Kind == tile.In && id.L > 0 {
			if ots := e.gr.Covering(*id); len(ots) > 0 {
				state = tileGatherable
				for _, ot := range ots {
					if !e.mem.Has(ot) {
						state = tileAbsent
						break
					}
				}
			}
		}
		f.keys = append(f.keys, uint64(id.Kind)<<62|state<<60|uint64(e.gr.SizeOf(n))<<sigCountBits)
		f.refs, f.mirror = append(f.refs, 1), append(f.mirror, -1)
		return int32(len(f.keys) - 1)
	}
	for _, opIdx := range window {
		op, ns := &e.gr.Ops[opIdx], e.gr.Operands(opIdx)
		ts := [3]int32{number(&op.In, ns[0]), number(&op.Wt, ns[1]), number(&op.Out, ns[2])}
		// Reuse is credited for operands on-chip or gatherable now; a fused
		// input is allowed it in any state, so the proof needs touch alone.
		var bound int64
		for s, t := range ts {
			if k := f.keys[t]; k>>60&3 != tileAbsent || s == 0 && op.In.L > 0 {
				bound += int64(k << 4 >> (4 + sigCountBits)) // the key's size field
			}
		}
		f.ops, f.twin, f.bound = append(f.ops, ts), append(f.twin, -1), append(f.bound, bound)
	}
	for _, n := range f.tiles {
		f.slot[n] = 0
	}
	for j := 1; dedup && j < len(f.ops); j++ {
	earlier:
		for i := j - 1; i >= 0; i-- {
			for s, tj := range f.ops[j] {
				if ti := f.ops[i][s]; ti != tj && (f.keys[ti] != f.keys[tj] || f.refs[ti] > 1 || f.refs[tj] > 1) {
					continue earlier
				}
			}
			f.twin[j] = i
			break
		}
	}
	if cap(f.count) < len(f.keys) {
		f.count = make([]uint16, len(f.keys))
	}
	f.count = f.count[:len(f.keys)]
	if dedup {
		f.findMirrors()
	}
}

// findMirrors fills in mirror (see stepFacts), pairing the k-th op naming
// one tile with the k-th naming the other, for tiles two ops name or more.
func (f *stepFacts) findMirrors() {
	f.multi = f.multi[:0]
	for t, k := range f.keys {
		if f.refs[t] >= 2 && k>>62 != uint64(tile.Out) {
			f.multi = append(f.multi, int32(t))
		}
	}
	if len(f.multi) < 2 {
		return
	}
	// Group positions by tile: runs counted out, filled from the end.
	f.start, f.at = f.start[:0], zeroed(f.at, 3*len(f.ops))
	var end int32
	for _, r := range f.refs {
		end += int32(r)
		f.start = append(f.start, end)
	}
	for wi := len(f.ops) - 1; wi >= 0; wi-- {
		for _, t := range f.ops[wi] {
			f.start[t]--
			f.at[f.start[t]] = int32(wi)
		}
	}
	for _, t2 := range f.multi {
		k := f.keys[t2]
		// Nearest first. A tile numbered after t2 fails on its first pair:
		// the earlier-partner clause orients the relation.
	earlier:
		for j := len(f.multi) - 1; j >= 0; j-- {
			t := f.multi[j]
			if t == t2 || f.keys[t] != k || f.refs[t] != f.refs[t2] {
				continue
			}
			for n := range int32(f.refs[t]) {
				p, q := f.at[f.start[t]+n], f.at[f.start[t2]+n]
				if p >= q {
					continue earlier
				}
				for s := range 3 {
					a, b := f.ops[p][s], f.ops[q][s]
					if s != int(k>>62) && a != b && (f.keys[a] != f.keys[b] || f.refs[a] > 1 || f.refs[b] > 1) {
						continue earlier
					}
				}
			}
			f.mirror[t2] = t
			break
		}
	}
}

// sigSet is the set of signatures seen in one scheduling step. All keys
// live back to back in one arena and the table holds offsets into it,
// so a new signature costs no allocation once the buffers have grown,
// and the whole set is reused from step to step.
type sigSet struct {
	keys  []uint64 // arena
	ents  []sigEnt // one per signature
	slots []int32  // open-addressing table: 1 + index into ents, 0 empty
}

type sigEnt struct {
	hash   uint64
	off, n int32
}

func (s *sigSet) reset() {
	s.keys, s.ents = s.keys[:0], s.ents[:0]
	clear(s.slots)
}

// add inserts sig and reports whether it was new.
func (s *sigSet) add(sig []uint64) bool {
	if 2*len(s.ents) >= len(s.slots) {
		s.slots = make([]int32, max(256, 2*len(s.slots)))
		for j, en := range s.ents { // all distinct: each probe ends on an empty slot
			s.slots[s.probe(en.hash, s.keys[en.off:en.off+en.n])] = int32(j + 1)
		}
	}
	h := uint64(len(sig))
	for _, k := range sig {
		h = (h ^ k) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	i := s.probe(h, sig)
	if s.slots[i] != 0 {
		return false
	}
	s.ents = append(s.ents, sigEnt{hash: h, off: int32(len(s.keys)), n: int32(len(sig))})
	s.keys = append(s.keys, sig...)
	s.slots[i] = int32(len(s.ents))
	return true
}

// probe walks hash's probe sequence to the slot holding sig, or to the
// first empty one.
func (s *sigSet) probe(hash uint64, sig []uint64) uint64 {
	mask := uint64(len(s.slots) - 1)
	i := hash & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		en := &s.ents[s.slots[i]-1]
		if en.hash == hash && slices.Equal(s.keys[en.off:en.off+en.n], sig) {
			break
		}
	}
	return i
}

// nextSetInOrder forms the next set following the static op order: the
// longest prefix of unissued ops, up to #cores, that are pairwise
// independent (no op may depend on another op of the same set) and
// whose operands, placed op by op, fit the scratchpad together: the set
// shrinks from the tail until it fits, each dropped op counting as one
// more set evaluated.
func (e *engine) nextSetInOrder() *setEval {
	order := e.cfg.Order
	w := &e.walk
	e.beginWalk()
	for i := e.pos; i < len(order) && len(w.cur.ops) < e.cfg.Arch.Cores; i++ {
		op := order[i]
		if p := e.gr.Pred(op); p >= 0 && slices.Contains(w.cur.ops, p) {
			break // in-order issue stalls at the dependent op
		}
		w.cur.ops = append(w.cur.ops, op)
	}
	n := len(w.cur.ops)
	e.placeTo(n)
	fit := w.placed
	e.nEval += n - fit
	if fit == 0 {
		return nil
	}
	e.nEval++
	e.pos += fit
	w.cur.ops, w.cur.util = w.cur.ops[:fit], e.mem.Utilization()
	ev := e.snapshot(nil)
	for w.placed > 0 {
		e.unplace()
	}
	return ev
}
