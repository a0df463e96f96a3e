package spm

import (
	"math/rand"
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// findAlg2RunQuadratic is the victim search as it was before it became
// one sliding-window pass, kept verbatim as the oracle: from every
// start it re-walks its window, asking for a block's remaining uses
// once per window the block sits in.
func (s *SPM) findAlg2RunQuadratic(size int64, remain useCounts) (run, bool) {
	bestFrag := int64(-1)
	bestDisadv := int64(-1)
	bestBlocks := 0
	var best run
	found := false
	for lo := 0; lo < len(s.regs); lo++ {
		if s.regs[lo].pin {
			continue
		}
		var spillSize, disadv int64
		blocks := 0
		for hi := lo; hi < len(s.regs); hi++ {
			r := &s.regs[hi]
			if r.pin {
				break
			}
			spillSize += r.size
			if r.alloc {
				disadv += r.size * int64(remain.of(r))
				blocks++
			}
			if spillSize < size {
				continue
			}
			frag := spillSize - size
			pick := false
			switch {
			case !found || frag < bestFrag:
				pick = true
			case frag == bestFrag && disadv < bestDisadv:
				pick = true
			case frag == bestFrag && disadv == bestDisadv && blocks < bestBlocks:
				pick = true
			}
			if pick {
				best = run{lo, hi}
				bestFrag, bestDisadv, bestBlocks = frag, disadv, blocks
				found = true
			}
			break // longer windows only add fragmentation
		}
	}
	return best, found
}

// TestAlg2RunMatchesQuadraticOracle: over random region layouts — free
// gaps, pins splitting the space into runs, many equal-sized blocks (so
// that fragment and disadvantage tie and the block count or the start
// order decides), requests from one byte to more than any run holds —
// and random remaining-use tables, the one-pass search picks the very
// window the quadratic search picks, and reads each block's remaining
// uses at most once.
func TestAlg2RunMatchesQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int64{64, 64, 64, 128, 128, 256, 512, 96}
	for trial := 0; trial < 4000; trial++ {
		s := &SPM{}
		remain := make(map[tile.ID]int)
		var addr, largestRun, thisRun int64
		n := 1 + rng.Intn(24)
		prevFree := false
		for i := 0; i < n; i++ {
			r := region{addr: addr, size: sizes[rng.Intn(len(sizes))]}
			switch k := rng.Intn(10); {
			case k < 2 && !prevFree: // free gap (never two in a row: regions stay coalesced)
			case k < 4:
				r.alloc, r.pin = true, true
			default:
				r.alloc = true
			}
			if r.alloc {
				r.id, r.num = mkID(i), int32(i)
				remain[r.id] = rng.Intn(4)
			}
			prevFree = !r.alloc
			if r.pin {
				thisRun = 0
			} else {
				thisRun += r.size
				largestRun = max(largestRun, thisRun)
			}
			s.regs = append(s.regs, r)
			addr += r.size
		}
		s.cap = addr
		var size int64
		switch rng.Intn(4) {
		case 0:
			size = sizes[rng.Intn(len(sizes))] // a single block often fits exactly
		case 1:
			size = largestRun + 1 + rng.Int63n(64) // larger than any run
		default:
			size = 1 + rng.Int63n(addr)
		}
		reads := make(map[tile.ID]int)
		got, gotOK := s.findAlg2Run(size, useCounts{fn: func(id tile.ID) int { reads[id]++; return remain[id] }})
		want, wantOK := s.findAlg2RunQuadratic(size, useCounts{fn: usesOf(remain)})
		if got != want || gotOK != wantOK {
			t.Fatalf("trial %d, request %d over %+v:\n one pass %v %v\n quadratic %v %v", trial, size, s.regs, got, gotOK, want, wantOK)
		}
		if wantOK != (size <= largestRun) {
			t.Fatalf("trial %d: found=%v for request %d with largest pin-free run %d", trial, wantOK, size, largestRun)
		}
		for id, k := range reads {
			if k > 1 {
				t.Fatalf("trial %d: remaining uses of %v read %d times in one search", trial, id, k)
			}
		}
	}
}
