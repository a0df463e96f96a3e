package spm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/flexer-sched/flexer/internal/tile"
)

// TestRandomOpSequences drives each policy with random allocate /
// evict / pin / dirty traffic and checks the representation invariants
// after every operation — on a twin, so also that a scratchpad bound to
// a numbering and one numbering tiles as first seen stay block for
// block the same.
func TestRandomOpSequences(t *testing.T) {
	for _, policy := range []Policy{PolicyFlexer, PolicyFirstFit, PolicySmallestFirst} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := newTwin(t, 1<<12, policy)
				uses := make(map[tile.ID]int)
				ru := usesOf(uses)
				live := []tile.ID{}
				for step := 0; step < 200; step++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4: // allocate
						id := mkID(rng.Intn(64))
						size := int64(rng.Intn(1<<10) + 1)
						uses[id] = rng.Intn(5)
						had := s.Has(id)
						if _, err := s.Allocate(id, size, ru); err == nil && !had {
							live = append(live, id)
						}
					case 5: // evict
						if len(live) > 0 {
							s.Evict(live[rng.Intn(len(live))], ru)
						}
					case 6: // unpin everything (like a scheduler step)
						s.UnpinAll()
					case 7: // pin a random live tile
						if len(live) > 0 {
							s.Pin(live[rng.Intn(len(live))])
						}
					case 8: // dirty a random live tile
						if len(live) > 0 {
							s.SetDirty(live[rng.Intn(len(live))], rng.Intn(2) == 0)
						}
					case 9: // clone and continue on the clone
						s = s.Clone()
					}
					if err := s.CheckInvariants(); err != nil {
						t.Logf("seed %d step %d: %v", seed, step, err)
						return false
					}
					if s.AllocatedBytes() > s.Capacity() {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAllocatePostconditions: after a successful Allocate the tile is
// present, pinned, and exactly one block of the requested size exists.
func TestAllocatePostconditions(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1<<12, PolicyFlexer)
		uses := make(map[tile.ID]int)
		ru := usesOf(uses)
		for step := 0; step < 60; step++ {
			id := mkID(rng.Intn(40))
			size := int64(rng.Intn(1<<10) + 1)
			uses[id] = rng.Intn(4)
			before := int64(-1)
			for _, b := range s.Blocks() {
				if b.ID == id {
					before = b.Size
				}
			}
			_, err := s.Allocate(id, size, ru)
			if err != nil {
				continue
			}
			if !s.Has(id) {
				return false
			}
			found := false
			for _, b := range s.Blocks() {
				if b.ID != id {
					continue
				}
				if found {
					return false // duplicate block
				}
				found = true
				if !b.Pinned {
					return false
				}
				want := size
				if before >= 0 {
					want = before // already present: size unchanged
				}
				if b.Size != want {
					return false
				}
			}
			if !found {
				return false
			}
			if rng.Intn(3) == 0 {
				s.UnpinAll()
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteBestRun reimplements Algorithm 2 naively over the exported
// block/gap structure to cross-check findAlg2Run.
func bruteBestRun(s *SPM, size int64, ru func(tile.ID) int) (frag, disadv int64, blocks int, ok bool) {
	type reg struct {
		sz    int64
		alloc bool
		pin   bool
		id    tile.ID
	}
	// Rebuild the region view from Blocks(): gaps are the spans
	// between consecutive blocks.
	var regs []reg
	var addr int64
	for _, b := range s.Blocks() {
		if b.Addr > addr {
			regs = append(regs, reg{sz: b.Addr - addr})
		}
		regs = append(regs, reg{sz: b.Size, alloc: true, pin: b.Pinned, id: b.ID})
		addr = b.Addr + b.Size
	}
	if addr < s.Capacity() {
		regs = append(regs, reg{sz: s.Capacity() - addr})
	}
	bestFrag, bestDis := int64(-1), int64(-1)
	bestBlocks := 0
	for lo := 0; lo < len(regs); lo++ {
		if regs[lo].pin {
			continue
		}
		var total, dis int64
		nb := 0
		for hi := lo; hi < len(regs); hi++ {
			if regs[hi].pin {
				break
			}
			total += regs[hi].sz
			if regs[hi].alloc {
				dis += regs[hi].sz * int64(ru(regs[hi].id))
				nb++
			}
			if total < size {
				continue
			}
			f := total - size
			better := !ok || f < bestFrag ||
				(f == bestFrag && dis < bestDis) ||
				(f == bestFrag && dis == bestDis && nb < bestBlocks)
			if better {
				bestFrag, bestDis, bestBlocks, ok = f, dis, nb, true
			}
			break
		}
	}
	return bestFrag, bestDis, bestBlocks, ok
}

// TestAlg2MatchesBruteForce: the victim run chosen by the optimized
// search achieves the brute-force optimum of (fragment, disadvantage,
// block count) on random scratchpad states.
func TestAlg2MatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1<<11, PolicyFlexer)
		s.SetInPlace(false)
		uses := make(map[tile.ID]int)
		ru := usesOf(uses)
		for i := 0; i < 12; i++ {
			id := mkID(i)
			uses[id] = rng.Intn(4)
			size := int64(rng.Intn(300) + 50)
			if _, err := s.Allocate(id, size, ru); err != nil {
				break
			}
		}
		s.UnpinAll()
		// Random pins.
		for _, b := range s.Blocks() {
			if rng.Intn(4) == 0 {
				s.Pin(b.ID)
			}
		}
		size := int64(rng.Intn(700) + 100)
		wantFrag, wantDis, wantBlocks, wantOK := bruteBestRun(s, size, ru)
		run, ok := s.findAlg2Run(size, useCounts{fn: ru})
		if ok != wantOK {
			t.Logf("seed %d: ok=%v want %v", seed, ok, wantOK)
			return false
		}
		if !ok {
			return true
		}
		// Compute achieved cost of the run found.
		var total, dis int64
		nb := 0
		for i := run.lo; i <= run.hi; i++ {
			r := s.regs[i]
			total += r.size
			if r.alloc {
				dis += r.size * int64(ru(r.id))
				nb++
			}
		}
		frag := total - size
		if frag != wantFrag || dis != wantDis || nb != wantBlocks {
			t.Logf("seed %d: got (%d,%d,%d), want (%d,%d,%d)", seed, frag, dis, nb, wantFrag, wantDis, wantBlocks)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSpillAlwaysSatisfiesRequest: whenever Allocate succeeds through
// any policy, the requested tile ends resident; whenever it fails, no
// partial state is left that breaks invariants.
func TestSpillAlwaysSatisfiesRequest(t *testing.T) {
	for _, policy := range []Policy{PolicyFlexer, PolicyFirstFit, PolicySmallestFirst} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := New(1<<11, policy)
				uses := make(map[tile.ID]int)
				ru := usesOf(uses)
				for step := 0; step < 80; step++ {
					id := mkID(rng.Intn(32))
					size := int64(rng.Intn(1<<10) + 1)
					uses[id] = rng.Intn(3)
					_, err := s.Allocate(id, size, ru)
					if err == nil && !s.Has(id) {
						return false
					}
					if err := s.CheckInvariants(); err != nil {
						return false
					}
					if rng.Intn(2) == 0 {
						s.UnpinAll()
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// observed is everything a caller can see of a scratchpad.
type observed struct {
	Blocks        []BlockInfo
	Has           []bool // per mkID(0..n)
	Used, Largest int64
}

func observe(s interface {
	Blocks() []BlockInfo
	AllocatedBytes() int64
	LargestFree() int64
	Has(tile.ID) bool
}, ids int) *observed {
	o := &observed{Blocks: s.Blocks(), Used: s.AllocatedBytes(), Largest: s.LargestFree()}
	for n := 0; n < ids; n++ {
		o.Has = append(o.Has, s.Has(mkID(n)))
	}
	return o
}

// TestCheckpointRollbackRestores: whatever happens between a checkpoint
// and its rollback — allocations with spills under every policy,
// evictions, pins, dirty bits, further checkpoints opened and closed —
// the rollback restores every observable of the scratchpad as it was
// at that depth, the representation invariants hold, and the
// scratchpad keeps working (the next round starts from the restored
// state and reuses the frames' buffers). Each round nests to a random
// depth and sometimes closes and re-opens inner frames on the way. Run
// on a twin: bound and interned scratchpads must agree throughout, and
// every rollback must land on the clone taken at its checkpoint.
func TestCheckpointRollbackRestores(t *testing.T) {
	const ids = 48
	for _, policy := range []Policy{PolicyFlexer, PolicyFirstFit, PolicySmallestFirst} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := newTwin(t, 1<<12, policy)
				uses := make(map[tile.ID]int)
				ru := usesOf(uses)
				mutate := func(steps int) {
					for ; steps > 0; steps-- {
						id := mkID(rng.Intn(ids))
						switch rng.Intn(8) {
						case 0, 1, 2, 3:
							uses[id] = rng.Intn(4)
							s.Allocate(id, int64(rng.Intn(1<<10)+1), ru)
						case 4:
							s.Evict(id, ru)
						case 5:
							s.Pin(id)
						case 6:
							s.SetDirty(id, rng.Intn(2) == 0)
						case 7:
							s.UnpinAll()
						}
					}
				}
				var want []*observed // per open checkpoint
				rollback := func(round int) bool {
					s.Rollback()
					got := observe(s, ids)
					if !reflect.DeepEqual(got, want[len(want)-1]) {
						t.Logf("seed %d round %d: rollback to depth %d restored\n%+v\nwant\n%+v", seed, round, len(want)-1, got, want[len(want)-1])
						return false
					}
					want = want[:len(want)-1]
					return true
				}
				for round := 0; round < 8; round++ {
					mutate(rng.Intn(30)) // committed work between checkpoints
					for depth := 1 + rng.Intn(6); depth > 0; depth-- {
						s.Checkpoint()
						want = append(want, observe(s, ids))
						mutate(rng.Intn(15))
						if rng.Intn(4) == 0 { // a sibling: close this frame, open the next on its parent
							if !rollback(round) {
								return false
							}
						}
					}
					for len(want) > 0 {
						if !rollback(round) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckpointPairing: checkpoints nest and close innermost first —
// each Rollback returns to the state its own Checkpoint saved; a
// rollback with none open panics; Reset discards every open checkpoint
// and a clone never carries one.
func TestCheckpointPairing(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	s := New(1<<10, PolicyFlexer)
	if !panics(s.Rollback) {
		t.Error("Rollback without a checkpoint did not panic")
	}
	ru := func(tile.ID) int { return 1 }
	const depth = 5
	var want []*observed
	for d := 0; d < depth; d++ {
		s.Checkpoint()
		want = append(want, observe(s, depth))
		if _, err := s.Allocate(mkID(d), 100, ru); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Clone(); !panics(c.Rollback) {
		t.Error("clone of a checkpointed scratchpad carries a checkpoint")
	}
	if c := s.CloneInto(New(1, PolicyFlexer)); !panics(c.Rollback) {
		t.Error("CloneInto of a checkpointed scratchpad carries a checkpoint")
	}
	for d := depth - 1; d >= 0; d-- {
		s.Rollback()
		if got := observe(s, depth); !reflect.DeepEqual(got, want[d]) {
			t.Fatalf("rollback to depth %d restored\n%+v\nwant\n%+v", d, got, want[d])
		}
	}
	if !panics(s.Rollback) {
		t.Errorf("a %d-th Rollback closed one of %d checkpoints twice", depth+1, depth)
	}
	s.Checkpoint()
	s.Checkpoint()
	s.Reset(1<<10, PolicyFlexer)
	if !panics(s.Rollback) {
		t.Error("Reset kept an open checkpoint")
	}
}
