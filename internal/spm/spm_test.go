package spm

import (
	"testing"
	"unsafe"

	"github.com/flexer-sched/flexer/internal/tile"
)

// TestBlockSizes pins an eviction and a region at 40 bytes each: a
// checkpoint copies the regions, and a set's evaluation the evictions.
func TestBlockSizes(t *testing.T) {
	if got := unsafe.Sizeof(Eviction{}); got != 40 {
		t.Errorf("spm.Eviction is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(region{}); got != 40 {
		t.Errorf("spm region is %d bytes, want 40", got)
	}
}

// The scratchpad's inspection and eviction calls that only its tests
// make.

// Blocks returns the allocated blocks in address order.
func (s *SPM) Blocks() []BlockInfo { return s.AppendBlocks(nil) }

// AllocatedBytes returns the total bytes currently allocated.
func (s *SPM) AllocatedBytes() int64 { return s.used }

// IsDirty reports whether tile id is present and dirty.
func (s *SPM) IsDirty(id tile.ID) bool {
	i := s.regionAt(s.num(id))
	return i >= 0 && s.regs[i].dirty
}

// Evict removes tile id from the scratchpad, returning its eviction
// record. It reports false when the tile is not present. remainUses is
// consulted for the eviction record; it may be nil.
func (s *SPM) Evict(id tile.ID, remainUses func(tile.ID) int) (Eviction, bool) {
	i := s.regionAt(s.num(id))
	if i < 0 {
		return Eviction{}, false
	}
	ev := s.evictAt(i, useCounts{fn: remainUses})
	s.coalesceAround(i)
	return ev, true
}

// mkID builds distinct tile IDs for tests.
func mkID(n int) tile.ID {
	return tile.ID{Kind: tile.Kind(n % 3), A: int32(n), B: int32(n / 3), C: int32(n / 7)}
}

// noUses reports zero remaining uses for every tile.
func noUses(tile.ID) int { return 0 }

// usesOf builds a remain-uses function from a map.
func usesOf(m map[tile.ID]int) func(tile.ID) int {
	return func(id tile.ID) int { return m[id] }
}

func mustAlloc(t *testing.T, s *SPM, id tile.ID, size int64, ru func(tile.ID) int) []Eviction {
	t.Helper()
	evs, err := s.Allocate(id, size, ru)
	if err != nil {
		t.Fatalf("Allocate(%v, %d): %v", id, size, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after Allocate(%v, %d): %v", id, size, err)
	}
	return evs
}

func TestNewEmpty(t *testing.T) {
	s := New(1024, PolicyFlexer)
	if s.Capacity() != 1024 || s.AllocatedBytes() != 0 || s.FreeBytes() != 1024 {
		t.Fatalf("fresh SPM: cap=%d used=%d free=%d", s.Capacity(), s.AllocatedBytes(), s.FreeBytes())
	}
	if s.Utilization() != 0 {
		t.Fatalf("fresh utilization = %f", s.Utilization())
	}
	if s.numBlocks() != 0 || len(s.Blocks()) != 0 {
		t.Fatal("fresh SPM has blocks")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, PolicyFlexer)
}

func TestAllocateBasics(t *testing.T) {
	s := New(1000, PolicyFlexer)
	a := mkID(1)
	if evs := mustAlloc(t, s, a, 300, noUses); len(evs) != 0 {
		t.Fatalf("fresh alloc evicted %v", evs)
	}
	if !s.Has(a) {
		t.Fatal("allocated tile not present")
	}
	if s.AllocatedBytes() != 300 || s.FreeBytes() != 700 {
		t.Fatalf("used=%d free=%d", s.AllocatedBytes(), s.FreeBytes())
	}
	// Re-allocating a present tile is a no-op.
	if evs := mustAlloc(t, s, a, 300, noUses); len(evs) != 0 {
		t.Fatalf("re-alloc evicted %v", evs)
	}
	if s.AllocatedBytes() != 300 {
		t.Fatalf("re-alloc changed usage: %d", s.AllocatedBytes())
	}
}

func TestAllocateRejectsBadSize(t *testing.T) {
	s := New(1000, PolicyFlexer)
	if _, err := s.Allocate(mkID(1), 0, noUses); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := s.Allocate(mkID(1), -4, noUses); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := s.Allocate(mkID(1), 1001, noUses); err == nil {
		t.Error("oversized request accepted")
	}
}

func TestBestFitChoosesTightestHole(t *testing.T) {
	s := New(1000, PolicyFlexer)
	a, b, c := mkID(1), mkID(2), mkID(3)
	mustAlloc(t, s, a, 200, noUses) // [0,200)
	mustAlloc(t, s, b, 300, noUses) // [200,500)
	mustAlloc(t, s, c, 100, noUses) // [500,600); free [600,1000)
	s.UnpinAll()
	// Evicting b leaves holes of 300 and 400; a 250-byte request must
	// take the 300 hole (best fit), not the 400 one.
	if _, ok := s.Evict(b, noUses); !ok {
		t.Fatal("evict failed")
	}
	d := mkID(4)
	mustAlloc(t, s, d, 250, noUses)
	for _, blk := range s.Blocks() {
		if blk.ID == d && blk.Addr != 200 {
			t.Fatalf("best fit placed %v at %#x, want 0xc8", d, blk.Addr)
		}
	}
	if s.LargestFree() != 400 {
		t.Fatalf("largest free = %d, want 400", s.LargestFree())
	}
}

func TestInPlaceReplacement(t *testing.T) {
	s := New(600, PolicyFlexer)
	a, b, c := mkID(1), mkID(2), mkID(3)
	uses := map[tile.ID]int{a: 0, b: 5, c: 5}
	mustAlloc(t, s, a, 200, usesOf(uses))
	mustAlloc(t, s, b, 200, usesOf(uses))
	mustAlloc(t, s, c, 200, usesOf(uses))
	s.UnpinAll()
	// d (same size) must replace the dead a, not spill b or c.
	d := mkID(4)
	evs := mustAlloc(t, s, d, 200, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != a {
		t.Fatalf("in-place replacement evicted %v, want [%v]", evs, a)
	}
	if !s.Has(d) || s.Has(a) || !s.Has(b) || !s.Has(c) {
		t.Fatal("wrong residency after in-place replacement")
	}
}

func TestInPlacePrefersCleanVictim(t *testing.T) {
	s := New(600, PolicyFlexer)
	dirtyDead, cleanDead, live := mkID(1), mkID(2), mkID(3)
	uses := map[tile.ID]int{live: 3}
	mustAlloc(t, s, dirtyDead, 200, usesOf(uses))
	mustAlloc(t, s, cleanDead, 200, usesOf(uses))
	mustAlloc(t, s, live, 200, usesOf(uses))
	s.SetDirty(dirtyDead, true)
	s.UnpinAll()
	evs := mustAlloc(t, s, mkID(4), 200, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != cleanDead || evs[0].Dirty {
		t.Fatalf("in-place chose %v, want clean %v", evs, cleanDead)
	}
}

func TestInPlaceDisabled(t *testing.T) {
	s := New(600, PolicyFlexer)
	s.SetInPlace(false)
	a, b := mkID(1), mkID(2)
	uses := map[tile.ID]int{b: 5}
	mustAlloc(t, s, a, 300, usesOf(uses)) // dead
	mustAlloc(t, s, b, 200, usesOf(uses)) // live; free tail 100
	s.UnpinAll()
	// With in-place off, a same-sized request still succeeds via the
	// spill path (a is the cheapest victim).
	evs := mustAlloc(t, s, mkID(3), 300, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != a {
		t.Fatalf("evictions = %v, want dead block %v", evs, a)
	}
}

func TestPinnedBlocksSurvive(t *testing.T) {
	s := New(400, PolicyFlexer)
	a, b := mkID(1), mkID(2)
	mustAlloc(t, s, a, 200, noUses)
	mustAlloc(t, s, b, 200, noUses)
	s.UnpinAll()
	if !s.Pin(a) {
		t.Fatal("pin failed")
	}
	evs := mustAlloc(t, s, mkID(3), 200, noUses)
	for _, ev := range evs {
		if ev.ID == a {
			t.Fatalf("pinned block %v evicted", a)
		}
	}
	if !s.Has(a) {
		t.Fatal("pinned block gone")
	}
	if s.Pin(mkID(99)) {
		t.Error("pinning an absent tile reported success")
	}
}

func TestAllPinnedFails(t *testing.T) {
	s := New(400, PolicyFlexer)
	mustAlloc(t, s, mkID(1), 200, noUses)
	mustAlloc(t, s, mkID(2), 200, noUses) // both stay pinned
	if _, err := s.Allocate(mkID(3), 300, noUses); err == nil {
		t.Fatal("allocation succeeded with everything pinned")
	}
	var ns *ErrNoSpace
	if _, err := s.Allocate(mkID(3), 300, noUses); !asErrNoSpace(err, &ns) {
		t.Fatalf("error type = %T, want *ErrNoSpace", err)
	}
}

func asErrNoSpace(err error, out **ErrNoSpace) bool {
	e, ok := err.(*ErrNoSpace)
	if ok {
		*out = e
	}
	return ok
}

func TestAlg2MinimizesFragmentation(t *testing.T) {
	s := New(1000, PolicyFlexer)
	ids := []tile.ID{mkID(1), mkID(2), mkID(3), mkID(4), mkID(5)}
	sizes := []int64{200, 100, 300, 150, 250}
	uses := map[tile.ID]int{}
	for i, id := range ids {
		uses[id] = 1
		mustAlloc(t, s, id, sizes[i], usesOf(uses))
	}
	s.UnpinAll()
	// A 300-byte request: block 3 alone (size 300) gives zero
	// fragmentation; any other window wastes bytes.
	evs := mustAlloc(t, s, mkID(6), 300, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != ids[2] {
		t.Fatalf("evicted %v, want exactly %v", evs, ids[2])
	}
}

func TestAlg2PrefersLowReuseOnTie(t *testing.T) {
	s := New(400, PolicyFlexer)
	hot, cold := mkID(1), mkID(2)
	uses := map[tile.ID]int{hot: 9, cold: 1}
	mustAlloc(t, s, hot, 200, usesOf(uses))
	mustAlloc(t, s, cold, 200, usesOf(uses))
	s.UnpinAll()
	// Both windows give zero fragmentation; the cold block must go.
	evs := mustAlloc(t, s, mkID(3), 200, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != cold {
		t.Fatalf("evicted %v, want cold %v", evs, cold)
	}
	if evs[0].RemainUses != 1 {
		t.Fatalf("eviction remain uses = %d, want 1", evs[0].RemainUses)
	}
}

func TestAlg2PrefersFewerBlocksOnFullTie(t *testing.T) {
	s := New(600, PolicyFlexer)
	a, b, c := mkID(1), mkID(2), mkID(3)
	uses := map[tile.ID]int{a: 1, b: 1, c: 2}
	mustAlloc(t, s, a, 100, usesOf(uses)) // [0,100)   disadv 100
	mustAlloc(t, s, b, 100, usesOf(uses)) // [100,200) disadv 100
	mustAlloc(t, s, c, 100, usesOf(uses)) // [200,300) disadv 200; free 300
	s.UnpinAll()
	// Request 300: the free tail serves it via best fit, so force the
	// spill path with 400: windows {a,b,c,+free100} vs {b,c,+free200}
	// vs {c,+free300}: frag 0 each... choose by disadv: {c+free}=200,
	// {b,c,...}. Wait: window must reach 400 contiguous bytes.
	evs := mustAlloc(t, s, mkID(4), 400, usesOf(uses))
	// Window [c, free) = 100+300 = 400, frag 0, disadv 200, 1 block.
	// Window [b, c, free) = 500 frag 100. So {c} wins.
	if len(evs) != 1 || evs[0].ID != c {
		t.Fatalf("evicted %v, want %v", evs, c)
	}
}

func TestFirstFitSpillsFirstBigEnough(t *testing.T) {
	s := New(600, PolicyFirstFit)
	a, b, c := mkID(1), mkID(2), mkID(3)
	uses := map[tile.ID]int{a: 5, b: 5, c: 5}
	mustAlloc(t, s, a, 100, usesOf(uses))
	mustAlloc(t, s, b, 300, usesOf(uses))
	mustAlloc(t, s, c, 200, usesOf(uses))
	s.UnpinAll()
	// Request 250: first single block big enough is b (300), even
	// though c (200)+free would fragment less under Alg2.
	evs := mustAlloc(t, s, mkID(4), 250, usesOf(uses))
	if len(evs) != 1 || evs[0].ID != b {
		t.Fatalf("first-fit evicted %v, want %v", evs, b)
	}
}

func TestFirstFitFallsBackToWindows(t *testing.T) {
	s := New(300, PolicyFirstFit)
	a, b, c := mkID(1), mkID(2), mkID(3)
	mustAlloc(t, s, a, 100, noUses)
	mustAlloc(t, s, b, 100, noUses)
	mustAlloc(t, s, c, 100, noUses)
	s.UnpinAll()
	// No single block holds 250; the fallback evicts a window.
	evs := mustAlloc(t, s, mkID(4), 250, noUses)
	if len(evs) < 2 {
		t.Fatalf("fallback evicted %v, want a multi-block window", evs)
	}
}

func TestSmallestFirstEvictsSmallest(t *testing.T) {
	s := New(600, PolicySmallestFirst)
	big, small1, small2 := mkID(1), mkID(2), mkID(3)
	uses := map[tile.ID]int{big: 1, small1: 9, small2: 9}
	mustAlloc(t, s, small1, 100, usesOf(uses)) // [0,100)
	mustAlloc(t, s, big, 400, usesOf(uses))    // [100,500)
	mustAlloc(t, s, small2, 100, usesOf(uses)) // [500,600)
	s.UnpinAll()
	// Request 150: smallest-first evicts small blocks (regardless of
	// reuse) until a hole is big enough; both 100-blocks go even
	// though evicting nothing but part of big would be smarter.
	evs := mustAlloc(t, s, mkID(4), 150, usesOf(uses))
	if len(evs) == 1 && evs[0].ID == big {
		t.Fatalf("smallest-first evicted the big block first: %v", evs)
	}
	for _, ev := range evs {
		if ev.ID == big {
			return // eventually allowed once smalls are gone
		}
	}
	if len(evs) < 2 {
		t.Fatalf("evictions = %v", evs)
	}
}

func TestEvictAndCoalesce(t *testing.T) {
	s := New(600, PolicyFlexer)
	a, b, c := mkID(1), mkID(2), mkID(3)
	mustAlloc(t, s, a, 200, noUses)
	mustAlloc(t, s, b, 200, noUses)
	mustAlloc(t, s, c, 200, noUses)
	s.UnpinAll()
	if _, ok := s.Evict(a, noUses); !ok {
		t.Fatal("evict a failed")
	}
	if _, ok := s.Evict(c, noUses); !ok {
		t.Fatal("evict c failed")
	}
	if _, ok := s.Evict(b, nil); !ok {
		t.Fatal("evict b failed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.LargestFree() != 600 {
		t.Fatalf("free space not coalesced: largest=%d", s.LargestFree())
	}
	if _, ok := s.Evict(mkID(9), noUses); ok {
		t.Error("evicting absent tile reported success")
	}
}

func TestDirtyFlagLifecycle(t *testing.T) {
	s := New(400, PolicyFlexer)
	a := mkID(1)
	mustAlloc(t, s, a, 200, noUses)
	if s.IsDirty(a) {
		t.Fatal("fresh block dirty")
	}
	s.SetDirty(a, true)
	if !s.IsDirty(a) {
		t.Fatal("SetDirty lost")
	}
	s.UnpinAll()
	ev, ok := s.Evict(a, noUses)
	if !ok || !ev.Dirty || ev.Size != 200 {
		t.Fatalf("eviction = %+v, want dirty 200-byte", ev)
	}
	if s.IsDirty(a) {
		t.Error("evicted tile still dirty")
	}
	s.SetDirty(mkID(9), true) // absent: no-op, no panic
}

func TestCloneIndependence(t *testing.T) {
	s := New(600, PolicyFlexer)
	a, b := mkID(1), mkID(2)
	mustAlloc(t, s, a, 200, noUses)
	s.SetDirty(a, true)
	c := s.Clone()
	mustAlloc(t, c, b, 300, noUses)
	c.SetDirty(a, false)
	if s.Has(b) {
		t.Fatal("clone allocation leaked into original")
	}
	if !s.IsDirty(a) {
		t.Fatal("clone dirty-flag change leaked into original")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, s, mkID(3), 400, noUses)
	if c.Has(mkID(3)) {
		t.Fatal("original allocation leaked into clone")
	}
}

func TestBlocksReportsAddressOrder(t *testing.T) {
	s := New(600, PolicyFlexer)
	mustAlloc(t, s, mkID(1), 100, noUses)
	mustAlloc(t, s, mkID(2), 200, noUses)
	mustAlloc(t, s, mkID(3), 300, noUses)
	blocks := s.Blocks()
	if len(blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(blocks))
	}
	var addr int64
	for _, b := range blocks {
		if b.Addr < addr {
			t.Fatalf("blocks out of order: %v", blocks)
		}
		addr = b.Addr + b.Size
		if !b.Pinned {
			t.Errorf("fresh allocation %v not pinned", b.ID)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFlexer.String() != "flexer" ||
		PolicyFirstFit.String() != "first-fit" ||
		PolicySmallestFirst.String() != "small-spill" {
		t.Error("policy names changed")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy renders empty")
	}
}

func TestErrNoSpaceMessage(t *testing.T) {
	e := &ErrNoSpace{ID: mkID(1), Size: 512}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestParsePolicyInvertsString checks the one name table: every listed
// name parses to the policy that prints it, default first.
func TestParsePolicyInvertsString(t *testing.T) {
	names := PolicyNames()
	if len(names) != 3 || names[0] != PolicyFlexer.String() {
		t.Fatalf("PolicyNames() = %v, want the 3 policies, flexer first", names)
	}
	for _, name := range names {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("lru"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}
