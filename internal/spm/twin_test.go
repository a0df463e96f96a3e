package spm

import (
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// testNums is the bound numbering of the twin tests: mkID(n) is tile n.
type testNums int

func (n testNums) NumTiles() int    { return int(n) }
func (testNums) Num(id tile.ID) int { return id.A }

// twin is one scratchpad run twice in lockstep: interned — tiles
// numbered as first seen, named by tile.ID, remaining uses asked of the
// caller's function (how bench/'s walk, the fuzz target and most tests
// use a scratchpad) — and bound to a Numbering, named by number where a
// number form exists (HasNum, PinNum, SetDirtyNum, AllocateBound),
// remaining uses read from a table by tile number (how the scheduler
// does). Every operation goes to both, and
// after every operation both must report the same evictions, the same
// error or none, the same blocks and sound invariants: the number's
// source must not show. A checkpoint also takes a clone, and the
// matching rollback — however many frames were opened and closed above
// it — must land on that clone block for block. The random-sequence
// property, the checkpoint/rollback property and FuzzAllocator all
// drive a twin.
type twin struct {
	t               testing.TB
	interned, bound *SPM
	tab             []int32 // remaining uses by number, refreshed from the caller's function
	marks           []*SPM  // per open checkpoint, a clone taken as it opened
}

// twinIDs bounds the tile numbers the twin tests draw from (mkID(0..63)).
const twinIDs = 64

func newTwin(t testing.TB, capacity int64, policy Policy) *twin {
	w := &twin{t: t, interned: New(capacity, policy), bound: New(capacity, policy), tab: make([]int32, twinIDs)}
	w.bound.Bind(testNums(twinIDs))
	return w
}

func (w *twin) agree(what string) {
	w.t.Helper()
	if a, b := w.interned.Blocks(), w.bound.Blocks(); !slices.Equal(a, b) {
		w.t.Fatalf("%s: interned and bound scratchpads differ:\n%+v\n%+v", what, a, b)
	}
	if err := w.interned.CheckInvariants(); err != nil {
		w.t.Fatalf("%s: interned: %v", what, err)
	}
	if err := w.bound.CheckInvariants(); err != nil {
		w.t.Fatalf("%s: bound: %v", what, err)
	}
}

func (w *twin) Allocate(id tile.ID, size int64, ru func(tile.ID) int) ([]Eviction, error) {
	w.t.Helper()
	for n := range w.tab {
		w.tab[n] = int32(ru(mkID(n)))
	}
	evA, errA := w.interned.Allocate(id, size, ru)
	evA = slices.Clone(evA)
	evB, errB := w.bound.AllocateBound(id, num(id), size, w.tab)
	if !slices.Equal(evA, evB) || (errA == nil) != (errB == nil) {
		w.t.Fatalf("Allocate(%v, %d): interned evicts %+v (%v), bound evicts %+v (%v)", id, size, evA, errA, evB, errB)
	}
	w.agree("Allocate")
	return evB, errB
}

func (w *twin) Evict(id tile.ID, ru func(tile.ID) int) (Eviction, bool) {
	w.t.Helper()
	evA, okA := w.interned.Evict(id, ru)
	evB, okB := w.bound.Evict(id, ru)
	if evA != evB || okA != okB {
		w.t.Fatalf("Evict(%v): interned %+v %v, bound %+v %v", id, evA, okA, evB, okB)
	}
	w.agree("Evict")
	return evB, okB
}

// num is id's number under the bound side's testNums.
func num(id tile.ID) int32 { return int32(testNums(twinIDs).Num(id)) }

func (w *twin) Pin(id tile.ID) bool {
	a, b := w.interned.Pin(id), w.bound.PinNum(num(id))
	if a != b {
		w.t.Fatalf("Pin(%v): interned %v, bound %v", id, a, b)
	}
	return b
}

func (w *twin) Has(id tile.ID) bool {
	a, b := w.interned.Has(id), w.bound.HasNum(num(id))
	if a != b {
		w.t.Fatalf("Has(%v): interned %v, bound %v", id, a, b)
	}
	return b
}

func (w *twin) SetDirty(id tile.ID, d bool) {
	w.interned.SetDirty(id, d)
	w.bound.SetDirtyNum(num(id), d)
}
func (w *twin) UnpinAll()             { w.interned.UnpinAll(); w.bound.UnpinAll() }
func (w *twin) Blocks() []BlockInfo   { w.agree("Blocks"); return w.bound.Blocks() }
func (w *twin) AllocatedBytes() int64 { return w.bound.AllocatedBytes() }
func (w *twin) LargestFree() int64    { return w.bound.LargestFree() }
func (w *twin) Capacity() int64       { return w.bound.Capacity() }

func (w *twin) Checkpoint() {
	w.marks = append(w.marks, w.bound.Clone())
	w.interned.Checkpoint()
	w.bound.Checkpoint()
}

func (w *twin) Rollback() {
	w.t.Helper()
	w.interned.Rollback()
	w.bound.Rollback()
	w.agree("Rollback")
	depth := len(w.marks) - 1
	if got, want := w.bound.Blocks(), w.marks[depth].Blocks(); !slices.Equal(got, want) {
		w.t.Fatalf("Rollback to depth %d restored\n%+v\nthe clone taken there holds\n%+v", depth, got, want)
	}
	w.marks = w.marks[:depth]
}

// CheckInvariants checks both scratchpads, and that they agree.
func (w *twin) CheckInvariants() error { w.agree("CheckInvariants"); return nil }

// Clone continues on clones of both (a clone keeps the binding, and of
// a first-seen numbering the resident tiles' numbers).
func (w *twin) Clone() *twin {
	c := &twin{t: w.t, interned: w.interned.Clone(), bound: w.bound.Clone(), tab: w.tab}
	c.agree("Clone")
	return c
}
