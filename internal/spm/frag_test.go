package spm

import (
	"math/rand"
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// FragStats quantifies scratchpad fragmentation, the failure mode
// Algorithm 2 exists to avoid: free space split into many small holes
// prevents allocating large tiles even when total free bytes suffice.
type FragStats struct {
	// FreeBytes is the total unallocated space.
	FreeBytes int64
	// FreeRegions is the number of disjoint free holes.
	FreeRegions int
	// LargestFree is the biggest single hole.
	LargestFree int64
	// External is the external-fragmentation ratio
	// 1 - largest/total free, in [0,1); 0 means all free space is one
	// hole, values near 1 mean the free space is unusably shredded.
	External float64
}

// Clone returns a deep copy sharing no state with s (a bound Numbering,
// which a scratchpad only reads, aside).
func (s *SPM) Clone() *SPM { return s.CloneInto(&SPM{}) }

// FreeBytes returns the total unallocated bytes (possibly fragmented).
func (s *SPM) FreeBytes() int64 { return s.cap - s.used }

// LargestFree returns the size of the largest contiguous free region.
func (s *SPM) LargestFree() int64 {
	var max int64
	for _, r := range s.regs {
		if !r.alloc && r.size > max {
			max = r.size
		}
	}
	return max
}

// Fragmentation returns the current fragmentation statistics.
func (s *SPM) Fragmentation() FragStats {
	st := FragStats{FreeBytes: s.FreeBytes()}
	for _, r := range s.regs {
		if r.alloc {
			continue
		}
		st.FreeRegions++
		if r.size > st.LargestFree {
			st.LargestFree = r.size
		}
	}
	if st.FreeBytes > 0 {
		st.External = 1 - float64(st.LargestFree)/float64(st.FreeBytes)
	}
	return st
}

func TestFragmentationEmptyAndFull(t *testing.T) {
	s := New(1000, PolicyFlexer)
	st := s.Fragmentation()
	if st.FreeBytes != 1000 || st.FreeRegions != 1 || st.LargestFree != 1000 || st.External != 0 {
		t.Fatalf("empty SPM frag stats: %+v", st)
	}
	mustAlloc(t, s, mkID(1), 1000, noUses)
	st = s.Fragmentation()
	if st.FreeBytes != 0 || st.FreeRegions != 0 || st.External != 0 {
		t.Fatalf("full SPM frag stats: %+v", st)
	}
}

func TestFragmentationShredded(t *testing.T) {
	s := New(1000, PolicyFlexer)
	for i := 0; i < 5; i++ {
		mustAlloc(t, s, mkID(i), 200, noUses)
	}
	s.UnpinAll()
	// Evict alternating blocks: free space 400 in two 200-holes.
	s.Evict(mkID(1), noUses)
	s.Evict(mkID(3), noUses)
	st := s.Fragmentation()
	if st.FreeBytes != 400 || st.FreeRegions != 2 || st.LargestFree != 200 {
		t.Fatalf("frag stats: %+v", st)
	}
	if st.External != 0.5 {
		t.Fatalf("external fragmentation = %f, want 0.5", st.External)
	}
}

// TestAlg2FragmentsLessThanFirstFit reproduces the paper's Section 4.1
// argument quantitatively: under the same randomized allocation
// pressure, Algorithm 2 victim selection leaves the scratchpad no more
// externally fragmented than first-fit spilling, on average.
func TestAlg2FragmentsLessThanFirstFit(t *testing.T) {
	run := func(policy Policy, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		s := New(1<<12, policy)
		s.SetInPlace(false) // isolate the victim-search policies
		uses := make(map[tile.ID]int)
		ru := usesOf(uses)
		total := 0.0
		samples := 0
		for step := 0; step < 400; step++ {
			id := mkID(rng.Intn(48))
			size := int64(rng.Intn(600) + 40)
			uses[id] = rng.Intn(4)
			s.Allocate(id, size, ru) // errors fine: measures pressure
			if step%4 == 3 {
				s.UnpinAll()
			}
			total += s.Fragmentation().External
			samples++
		}
		return total / float64(samples)
	}
	var alg2, firstFit float64
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		alg2 += run(PolicyFlexer, seed)
		firstFit += run(PolicyFirstFit, seed)
	}
	alg2 /= trials
	firstFit /= trials
	t.Logf("mean external fragmentation: alg2=%.4f first-fit=%.4f", alg2, firstFit)
	if alg2 > firstFit*1.05 {
		t.Errorf("Algorithm 2 fragmented more than first-fit: %.4f vs %.4f", alg2, firstFit)
	}
}
