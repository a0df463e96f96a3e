package sched

import (
	"slices"
	"sort"

	"github.com/flexer-sched/flexer/internal/tile"
)

// nextSetOoO forms the next operation set out of order: it ranks the
// ready queue, enumerates candidate combinations of up to #cores ops
// from the best-ranked window, prunes duplicates with identical
// dataflow maps, evaluates the survivors, and returns the highest
// priority feasible set. It degrades to smaller sets when no full-width
// set fits in the scratchpad, and returns nil only if not even a single
// op can be made resident.
func (e *engine) nextSetOoO() *setEval {
	window := e.selectWindow()
	prune := !e.cfg.DisablePruning
	if prune {
		e.seen.reset()
		e.stepFacts(window, true)
	}
	maxSize := e.cfg.Arch.Cores
	if len(window) < maxSize {
		maxSize = len(window)
	}
	// Evaluate every set width: under the default priority a narrower
	// set can legitimately beat a full-width one when the extra ops
	// would thrash the scratchpad (benefit ranks above width).
	var best *setEval
	for size := maxSize; size >= 1; size-- {
		cand := e.bestSetOfSize(window, size)
		if cand == nil {
			continue
		}
		if best == nil || e.less(cand, best) {
			e.releaseEval(best)
			best = cand
		} else {
			e.releaseEval(cand)
		}
	}
	if best == nil && len(window) < len(e.ready) {
		// Nothing from the window fits; fall back to single ops from
		// the whole ready queue before reporting failure.
		if prune {
			e.stepFacts(e.ready, false)
		}
		best = e.bestSetOfSize(e.ready, 1)
	}
	return best
}

// rankedOps sorts ready ops by descending resident-operand bytes, ties
// broken by rank. It lives on the engine so sorting allocates nothing
// (sort.Slice's reflection-based swapper was a measurable share of the
// search's heap).
type rankedOps struct {
	ops    []int
	scores []int64
	rank   []int
}

func (r *rankedOps) Len() int { return len(r.ops) }
func (r *rankedOps) Less(i, j int) bool {
	if r.scores[i] != r.scores[j] {
		return r.scores[i] > r.scores[j]
	}
	return r.rank[r.ops[i]] < r.rank[r.ops[j]]
}
func (r *rankedOps) Swap(i, j int) {
	r.ops[i], r.ops[j] = r.ops[j], r.ops[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// hintedOps sorts ops by their hint rank.
type hintedOps struct {
	ops  []int
	rank []int
}

func (h *hintedOps) Len() int           { return len(h.ops) }
func (h *hintedOps) Less(i, j int) bool { return h.rank[h.ops[i]] < h.rank[h.ops[j]] }
func (h *hintedOps) Swap(i, j int)      { h.ops[i], h.ops[j] = h.ops[j], h.ops[i] }

// selectWindow returns the most promising ready ops, at most
// MaxReadyWindow. In pure OoO mode ops are ranked by the bytes of
// their operands already resident (aligning the window with the
// memory-benefit priority). With a dataflow hint, the window follows
// the hint order outright — the run explores combinations around the
// loop order, deviating only where the set priority says so, which is
// how Algorithm 1's per-dataflow GetSchedule stays anchored to its
// dataflow. The returned slice is engine scratch, valid until the next
// call.
func (e *engine) selectWindow() []int {
	if e.cfg.Hint != nil {
		e.hinted.ops = append(e.hinted.ops[:0], e.ready...)
		e.hinted.rank = e.rank
		sort.Sort(&e.hinted)
		window := e.hinted.ops
		if n := e.cfg.MaxReadyWindow; len(window) > n {
			window = window[:n]
		}
		return window
	}
	e.ranked.ops = append(e.ranked.ops[:0], e.ready...)
	if cap(e.ranked.scores) < len(e.ready) {
		e.ranked.scores = make([]int64, len(e.ready))
	}
	e.ranked.scores = e.ranked.scores[:len(e.ready)]
	for i, opIdx := range e.ranked.ops {
		op := &e.gr.Ops[opIdx]
		var score int64
		if e.mem.Has(op.In) {
			score += e.gr.Size(op.In)
		}
		if e.mem.Has(op.Wt) {
			score += e.gr.Size(op.Wt)
		}
		if op.ReadsPsum && e.mem.Has(op.Out) {
			score += e.gr.Size(op.Out)
		}
		e.ranked.scores[i] = score
	}
	e.ranked.rank = e.rank
	sort.Stable(&e.ranked)
	n := e.cfg.MaxReadyWindow
	if n > len(e.ranked.ops) {
		n = len(e.ranked.ops)
	}
	e.window = append(e.window[:0], e.ranked.ops[:n]...)
	return e.window
}

// bestSetOfSize enumerates combinations of size ops from window in
// lexicographic order, prunes, evaluates, and returns the best feasible
// evaluation (nil if none). With pruning on, e.facts must describe
// window (stepFacts) and e.seen carries the step's signatures.
func (e *engine) bestSetOfSize(window []int, size int) *setEval {
	var best *setEval
	prune := !e.cfg.DisablePruning
	if cap(e.combo) < size {
		e.combo = make([]int, size)
		e.set = make([]int, size)
	}
	combo := e.combo[:size]
	set := e.set[:size]
	for i := range combo {
		combo[i] = i
	}
	for evaluated := 0; evaluated < e.cfg.MaxCandidateSets; {
		if prune && !e.seen.add(e.comboSignature(combo)) {
			e.nPruned++
		} else {
			for i, wi := range combo {
				set[i] = window[wi]
			}
			evaluated++
			if ev := e.evalSet(set); ev != nil {
				if best == nil || e.less(ev, best) {
					e.releaseEval(best)
					best = ev
				} else {
					e.releaseEval(ev)
				}
			}
		}
		// Advance to the next combination: bump the rightmost index that
		// still has room and reset everything after it.
		i := size - 1
		for i >= 0 && combo[i] == len(window)-size+i {
			i--
		}
		if i < 0 {
			break
		}
		combo[i]++
		for j := i + 1; j < size; j++ {
			combo[j] = combo[j-1] + 1
		}
	}
	return best
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
type stepFacts struct {
	ids   []tile.ID  // distinct tiles, for de-duplication
	keys  []uint64   // per tile: packed kind, state and size, count zero
	count []uint16   // per tile: comboSignature scratch, zero between calls
	ops   [][3]int32 // per window position: tile numbers of In, Wt, Out
	sig   []uint64   // comboSignature result buffer
}

// stepFacts fills e.facts for window from the current scratchpad. With
// dedup, a tile shared by several window ops gets one number, so that
// combinations count references to it; the single-op fallback over the
// whole ready queue needs no sharing and skips the quadratic scan.
func (e *engine) stepFacts(window []int, dedup bool) {
	f := &e.facts
	f.ids, f.keys, f.ops = f.ids[:0], f.keys[:0], f.ops[:0]
	number := func(id tile.ID) int32 {
		if dedup {
			for i := range f.ids {
				if f.ids[i] == id {
					return int32(i)
				}
			}
			f.ids = append(f.ids, id)
		}
		state := tileAbsent
		if e.mem.Has(id) {
			state = tileResident
		} else if e.fused && id.Kind == tile.In && id.L > 0 {
			if ots := e.gr.Covering(id); len(ots) > 0 {
				state = tileGatherable
				for _, ot := range ots {
					if !e.mem.Has(ot) {
						state = tileAbsent
						break
					}
				}
			}
		}
		f.keys = append(f.keys, uint64(id.Kind)<<62|state<<60|uint64(e.gr.Size(id))<<sigCountBits)
		return int32(len(f.keys) - 1)
	}
	for _, opIdx := range window {
		op := &e.gr.Ops[opIdx]
		f.ops = append(f.ops, [3]int32{number(op.In), number(op.Wt), number(op.Out)})
	}
	if cap(f.count) < len(f.keys) {
		f.count = make([]uint16, len(f.keys))
	}
	f.count = f.count[:len(f.keys)]
}

// comboSignature classifies the candidate set formed by the window
// positions in combo by its dataflow map (Section 4.2): for every
// distinct operand tile, its kind, residency, byte size and the number
// of ops in the set referencing it (output tiles: first writes and psum
// continuations are told apart by residency + count) — as a sorted run
// of packed keys; tile identity is deliberately not part of it. Sets
// with equal signatures move the same data and are interchangeable for
// the priority function, so duplicates are pruned. The result is
// scratch, valid until the next call.
func (e *engine) comboSignature(combo []int) []uint64 {
	f := &e.facts
	for _, wi := range combo {
		for _, t := range f.ops[wi] {
			f.count[t]++
		}
	}
	sig := f.sig[:0]
	for _, wi := range combo {
		for _, t := range f.ops[wi] {
			if f.count[t] == 0 {
				continue // already emitted
			}
			k := f.keys[t] | uint64(f.count[t])
			f.count[t] = 0
			i := len(sig)
			sig = append(sig, k)
			for ; i > 0 && sig[i-1] > k; i-- {
				sig[i] = sig[i-1]
			}
			sig[i] = k
		}
	}
	f.sig = sig
	return sig
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
// independent (no op may depend on another op of the same set). When
// the scratchpad cannot hold a full set, the set shrinks from the tail
// until it fits.
func (e *engine) nextSetInOrder() *setEval {
	order := e.cfg.Order
	set := e.window[:0]
	for i := e.pos; i < len(order) && len(set) < e.cfg.Arch.Cores; i++ {
		op := order[i]
		if p := e.gr.Pred(op); p >= 0 {
			inSet := false
			for _, s := range set {
				if s == p {
					inSet = true
					break
				}
			}
			if inSet {
				break // in-order issue stalls at the dependent op
			}
		}
		set = append(set, op)
	}
	e.window = set[:0]
	for len(set) > 0 {
		if ev := e.evalSet(set); ev != nil {
			e.pos += len(set)
			return ev
		}
		set = set[:len(set)-1]
	}
	return nil
}
