package spm

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// The two ways to try a candidate set's allocations and take them back
// (run with -benchmem): copy the scratchpad and allocate on the copy,
// as the scheduler did, or allocate in place between a checkpoint and a
// rollback, as it does now — under one frame ("flat", how a whole set
// was evaluated) or under one frame per allocation ("nested", what the
// scheduler's set walk pays when it places every op of a set anew; its
// point is that a set sharing a prefix with the last one does not).
// All run the same four allocations into the free half of a scratchpad
// holding 48 blocks, so the allocations are cheap and the difference
// is the mechanism.

func benchScratchpad(b *testing.B) (s *SPM, ru func(tile.ID) int, want []tile.ID) {
	b.Helper()
	s = New(96<<10, PolicyFlexer)
	uses := make(map[tile.ID]int)
	ru = usesOf(uses)
	for n := 0; n < 48; n++ {
		uses[mkID(n)] = 1 + n%3
		if _, err := s.Allocate(mkID(n), 1<<10, ru); err != nil {
			b.Fatal(err)
		}
	}
	s.UnpinAll()
	for n := 100; n < 104; n++ {
		want = append(want, mkID(n))
	}
	return s, ru, want
}

func allocateAll(b *testing.B, s *SPM, ids []tile.ID, ru func(tile.ID) int) {
	for i, id := range ids {
		if _, err := s.Allocate(id, int64(1+i)<<9, ru); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRollback(b *testing.B) {
	b.Run("flat", func(b *testing.B) {
		s, ru, want := benchScratchpad(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Checkpoint()
			allocateAll(b, s, want, ru)
			s.Rollback()
		}
	})
	b.Run("nested", func(b *testing.B) {
		s, ru, want := benchScratchpad(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, id := range want {
				s.Checkpoint()
				if _, err := s.Allocate(id, int64(1+j)<<9, ru); err != nil {
					b.Fatal(err)
				}
			}
			for range want {
				s.Rollback()
			}
		}
	})
}

func BenchmarkCloneInto(b *testing.B) {
	s, ru, want := benchScratchpad(b)
	dst := New(1, PolicyFlexer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocateAll(b, s.CloneInto(dst), want, ru)
	}
}

// BenchmarkAllocateSpill is Algorithm 2 on a full scratchpad: 48 blocks
// of four sizes and three remaining-use counts, no free space, a
// request that takes a window of several blocks — the allocation a
// scheduler under memory pressure makes for every operand of every
// candidate set. The victim search is the whole cost.
func BenchmarkAllocateSpill(b *testing.B) {
	s := New(120<<10, PolicyFlexer)
	uses := make(map[tile.ID]int)
	ru := usesOf(uses)
	for n := 0; n < 48; n++ {
		uses[mkID(n)] = 1 + n%3
		if _, err := s.Allocate(mkID(n), int64(1+n%4)<<10, ru); err != nil {
			b.Fatal(err)
		}
	}
	s.UnpinAll()
	if s.FreeBytes() != 0 {
		b.Fatalf("scratchpad not full: %d bytes free", s.FreeBytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Checkpoint()
		if _, err := s.Allocate(mkID(100), 7<<10, ru); err != nil {
			b.Fatal(err)
		}
		s.Rollback()
	}
}
